"""The measured process: runs one workload's jobs back to back and checks them.

Started by run.py with the BLAS thread count pinned.  It imports uavloop,
runs one warm-up job whose artifacts are the reference, then runs jobs
back to back while a typical job still fits in ``--seconds``.  With ``--trace 1`` untraced and traced
jobs alternate, so the tracing overhead is measured in the same process.
The result, including this process's peak RSS, is written as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(handle, name):
                getter = getattr(handle, name)
                getter.restype = ctypes.c_int
                return getter()
    return None


def peak_rss_mb() -> float:
    """This process's own peak RSS (VmHWM).

    Not ru_maxrss: Linux carries the parent's high-water mark across
    fork and exec into it, so it can report the launcher's peak instead.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM line in /proc/self/status")


def artifact_digests(out: str) -> dict:
    return {name: _sha256(os.path.join(out, name)) for name in sorted(os.listdir(out))}


def run_job(cli, workload, data: str, data_sha: str, out: str, reference, tracer):
    """One closed-loop job: the recipe, then its output checks.

    Returns (seconds, artifact digests, problems).  The artifacts must be
    byte-identical to ``reference`` when one is given.
    """
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    problems: list[str] = []
    digests: dict = {}
    captured = io.StringIO()
    started = time.perf_counter()
    try:
        with span("job"):
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                with span("cli.main"):
                    code = cli.main(workload.argv(data, out))
            if code != 0:
                problems.append(f"exit code {code}: {captured.getvalue().strip()[-500:]}")
            else:
                with span("bench.check"):
                    problems += workload.check(out)
                    digests = artifact_digests(out)
                    with open(os.path.join(out, "run_manifest.json"), encoding="utf-8") as fh:
                        if json.load(fh)["inputs"].get("data") != data_sha:
                            problems.append("manifest input hash differs from the input file")
                    if reference is not None and digests != reference:
                        problems.append("artifacts differ from the warm-up job's")
    except Exception:  # a crashing job is counted as failed, and the run goes on
        problems.append(traceback.format_exc(limit=3))
    return time.perf_counter() - started, digests, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--work", required=True, help="directory for job outputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    import uavloop.cli as cli
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    data_sha = _sha256(args.data)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    def job(index: int, traced: bool, reference):
        out = os.path.join(args.work, f"job-{index}")
        if traced:
            tracer.job = index
            tracer.install()
        try:
            result = run_job(cli, workload, args.data, data_sha, out,
                             reference, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        for problem in result[2]:
            print(f"job {index} failed: {problem}", file=sys.stderr)
        return result

    warmup_s, reference, problems = job(0, False, None)
    failed = int(bool(problems))
    if problems:
        reference = None
    plain_s, traced_s, traced_jobs = [], [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        index += 1
        traced = bool(args.trace) and index % 2 == 0
        seconds, _, problems = job(index, traced, reference)
        failed += bool(problems) or reference is None
        if traced:
            traced_s.append(seconds)
            traced_jobs.append(index)
        else:
            plain_s.append(seconds)
        # Start a job only if a typical one still fits before the deadline.
        typical = statistics.median(plain_s + traced_s)
        if time.perf_counter() + typical > deadline and (traced_s or not args.trace):
            break

    result = {
        "warmup_s": warmup_s,
        "job_s": plain_s,
        "traced_job_s": traced_s,
        "attempted": 1 + index,
        "failed": failed,
        "artifacts": reference or {},
        "blas_threads": blas_threads(),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer, traced_jobs, traced_s, plain_s)
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
