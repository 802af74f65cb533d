"""Rules on the package's source, checked on its syntax tree.

A module reaches another only through its public names, and every text
artifact is written by ``telemetry.write_text``, so all of them get the same
encoding and line ends on every platform.  Every public top-level function
is used somewhere in the package outside its own body (``__init__``'s
re-exports do not count), unless it is one of the ``ENTRY_POINTS`` that only
callers outside the package reach.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "uavloop"
MODULES = sorted(SRC.glob("*.py"))
WRITER = ("telemetry", "write_text")
# (module.function, why it is public though nothing in the package uses it)
ENTRY_POINTS = (
    ("packetset.build_dataset", "acceptance criterion 7; wrapped by the benchmark tracer"),
    ("packetset.extract_sessions", "wrapped by the benchmark tracer"),
    ("packetset.parse_dataset", "acceptance criterion 7; the packet-pairs benchmark check"),
    ("packetset.render_dataset", "acceptance criterion 7; wrapped by the benchmark tracer"),
    ("telemetry.parse_table", "the in-memory form of load_table, which the tests drive"),
    ("tiersim.fit_latency_model", "acceptance criterion 6"),
)


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def private_imports(tree) -> list[str]:
    """Private names this module takes from other package modules, by import or attribute."""
    found, aliases = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").startswith("uavloop"):
            for alias in node.names:
                if private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
                if node.module is None or node.module == "uavloop":
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def references(module: str, tree) -> set[tuple[str, str]]:
    """(module, name) of every package name this module uses, outside that name's own def.

    A bare name is the one imported under it, else this module's own; an
    attribute of a module alias (``tel.split``) names that module's attribute.
    """
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ref = names.get(node.id, (module, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                ref = (modules[node.value.id], node.attr)
            else:
                continue
            if ref != (module, owner):
                found.add(ref)
    return found


def unused_functions(trees: dict) -> list[str]:
    """module.name of each public top-level function that no module but __init__ uses."""
    public = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not private(node.name)
    }
    used = set().union(*(references(m, t) for m, t in trees.items() if m != "__init__"))
    return sorted(f"{module}.{name}" for module, name in public - used)


def open_mode(call: ast.Call):
    """The mode of an open() call as a string, None when it is not a constant."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r")
    )
    return mode.value if isinstance(mode, ast.Constant) else None


def write_openers(tree) -> list[str]:
    """Names of the functions that call open() with a mode that can write."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            mode = open_mode(node) if name == "open" else "r"
            if mode is None or set(mode) & set("wax+"):
                found.append(func.name)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_name_from_another_module(path):
    assert private_imports(parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_write_text_opens_files_for_writing(path):
    allowed = [WRITER[1]] if path.stem == WRITER[0] else []
    assert write_openers(parse(path)) == allowed


def test_every_public_function_is_used_or_an_entry_point():
    trees = {path.stem: parse(path) for path in MODULES}
    assert unused_functions(trees) == sorted(name for name, _ in ENTRY_POINTS)


def test_rules_catch_what_they_forbid():
    tree = ast.parse(
        "from .forecast import _row_blocks\n"
        "from . import telemetry as tel\n"
        "def save(path):\n"
        "    tel._sealed(None)\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write('x')\n"
        "def load(path):\n"
        "    return open(path, mode='rb').read()\n"
    )
    assert private_imports(tree) == ["forecast._row_blocks", "tel._sealed"]
    assert write_openers(tree) == ["save"]
    trees = {
        "__init__": ast.parse("from .stats import mean, spread\n"),
        "stats": ast.parse(
            "def mean(xs):\n"
            "    return sum(xs) / len(xs)\n"
            "def spread(xs):\n"
            "    return spread(xs[1:]) if xs else 0\n"
            "def _square(x):\n"
            "    return x * x\n"
        ),
        "cli": ast.parse(
            "from .stats import mean as average\n"
            "from . import stats as st\n"
            "def run(xs):\n"
            "    return average(xs), st.mean(xs)\n"
            "COMMANDS = {'run': run}\n"
        ),
    }
    # spread calls only itself, and __init__'s re-export is no use.
    assert unused_functions(trees) == ["stats.spread"]
