"""Rules on the package's source, checked on its syntax tree.

A module reaches another only through its public names, and every text
artifact is written by ``telemetry.write_text``, so all of them get the same
encoding and line ends on every platform.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "uavloop"
MODULES = sorted(SRC.glob("*.py"))
WRITER = ("telemetry", "write_text")


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
