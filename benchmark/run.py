"""Run one uavloop benchmark workload and print its metrics.

    python3 benchmark/run.py --workload mission-nth --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is the ``src/`` tree beside this
directory.  The inputs are made from ``--seed`` in this process, then a
separate worker process (BLAS pinned to one thread) runs the jobs, so the
worker's peak RSS is the recipe's own.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics; either way the last line of
standard output is one JSON object.  See README.md for what each number
means.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every process started from here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")

# Set-up is repeated and its median taken, so one slow repeat does not move it.
SETUP_REPEATS = 3
# Every run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT_S = 170.0
WORKLOAD_NAMES = ("mission-nth", "stream-sweep", "packet-pairs")

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import uavloop.cli; "
    "print(time.perf_counter() - t)"
)


def _src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def _metadata(args, input_bytes: int, records: int, worker: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": worker.get("blas_threads"),
        "seed": args.seed,
        "workload": args.workload,
        "input_records": records,
        "input_bytes": input_bytes,
        "src_lines": _src_lines(),
    }


def _generate(workload, seed: int, work: str) -> tuple[str, list, set]:
    """Make and write the input SETUP_REPEATS times; returns path, times, digests."""
    seconds, digests = [], set()
    for k in range(SETUP_REPEATS):
        path = os.path.join(work, f"input-{k}.csv")
        started = time.perf_counter()
        text = workload.make_input(seed)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        seconds.append(time.perf_counter() - started)
        digests.add(hashlib.sha256(text.encode()).hexdigest())
        if k:
            os.remove(path)
    return os.path.join(work, "input-0.csv"), seconds, digests


def _import_times(env: dict) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return times


def _select(spec: list, produced: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in produced]
    if missing:
        raise KeyError(f"benchmark produced no value for {missing}")
    return {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in spec}


def run(args, work: str) -> int:
    started = time.perf_counter()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    data, gen_s, input_digests = _generate(workload, args.seed, work)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    import_s = _import_times(env)

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result_path = os.path.join(work, "result.json")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--data", data, "--work", work,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", result_path, "--spans", stem + ".spans.jsonl",
    ]
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    worker = subprocess.run(command, env=env, capture_output=True, text=True, timeout=remaining)
    sys.stderr.write(worker.stderr)
    if worker.returncode != 0:
        print(f"error: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    if args.trace:
        produced = result["layers"]
        metrics = _select(spec["per_layer"], produced)
    else:
        produced = {
            "job_s": statistics.median(result["job_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(gen_s) + statistics.median(import_s)
            + result["warmup_s"],
        }
        metrics = _select(spec["end_to_end"], produced)

    meta = _metadata(args, os.path.getsize(data), workload.records, result)
    failed, attempted = result["failed"], result["attempted"]
    deterministic = len(input_digests) == 1
    print(f"uavloop benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"input sha256 {sorted(input_digests)[0]} ({meta['input_bytes']} bytes, "
          f"{'identical' if deterministic else 'DIFFERENT'} over {SETUP_REPEATS} generations)")
    for name, digest in sorted(result["artifacts"].items()):
        print(f"artifact {name} sha256 {digest}")
    timed = len(result["job_s"]) + len(result["traced_job_s"])
    print(f"jobs: {timed} timed + 1 warm-up, failed {failed} of {attempted}, "
          f"failed_ratio {failed / attempted}")
    print(f"setup: generate {gen_s} s, import {import_s} s, warm-up {result['warmup_s']} s")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    summary = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        raw = {k: result[k] for k in ("job_s", "traced_job_s", "warmup_s", "artifacts")}
        json.dump({"meta": meta, **raw, "generate_s": gen_s, "import_s": import_s, **summary},
                  fh, indent=1)
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="'all' runs every workload, untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uavloop", "cli.py")):
        print(f"error: no uavloop source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    sys.path[:0] = [SRC, HERE]
    if args.workload == "all":
        runs = [(name, trace) for trace in (0, 1) for name in WORKLOAD_NAMES]
    else:
        runs = [(args.workload, args.trace)]
    code = 0
    for name, trace in runs:
        one = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
        work = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
        os.makedirs(work)
        try:
            code = max(code, run(one, work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
