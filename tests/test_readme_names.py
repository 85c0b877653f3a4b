"""Every Python name that README.md puts in backticks exists in the program.

A backticked span counts as a Python name when it is a dotted identifier
of two or more characters, optionally called (``Piece.tiled(den, spans)``),
and not a file name (``exact_lp.py``); fenced code blocks are left out.
Its last dotted part must be defined or used in ``src/efgc``: the name of
a function, class, parameter or import, an ``ast.Name``, the attribute of
an ``ast.Attribute``, or a string constant that is not a docstring (mode
and command names such as ``oracle``).  A dotted name may instead be an
importable ``efgc`` module, and a ``test_`` name must be a test function
under ``tests/``.  So a README that still names a function after it moved
out of the package fails here.
"""
import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(.*\))?", re.ASCII)


def _readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    spans = set(re.findall(r"`([^`\n]+)`", text))
    return {s for s in spans if NAME.fullmatch(s) and not s.endswith(".py") and len(s) > 1}


def _names_in(tree: ast.Module) -> set[str]:
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names.add(node.value)
    return names


def _is_module(dotted: str) -> bool:
    try:
        importlib.import_module(dotted)
    except ImportError:
        return False
    return True


def test_readme_names_exist_in_the_program():
    program = set()
    for path in (ROOT / "src" / "efgc").glob("*.py"):
        program |= _names_in(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    tests = {
        node.name
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.FunctionDef)
    }
    names = _readme_names()
    assert {"efgc.linprog", "Piece.tiled(den, spans)", "tile_spans"} <= names
    missing = []
    for name in sorted(names):
        dotted = name.split("(", 1)[0]
        if name.startswith("test_"):
            found = name in tests
        else:
            found = dotted.rsplit(".", 1)[-1] in program or (
                dotted.startswith("efgc.") and _is_module(dotted)
            )
        if not found:
            missing.append(name)
    assert not missing
