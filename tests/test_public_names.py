"""Every public function, class and method that ``src/efgc`` defines at
module or class level is used by the program, or is exported.

Used means that code in ``src/efgc``, ``demos/`` or ``perfbench/``
(``test_*.py`` files left out) names it, as an ``ast.Name`` or as the
attribute of an ``ast.Attribute``; an import does not count.  Exported
means listed in ``efgc.__all__``.  So a name that only tests use fails.

Blind spot: uses are matched by name alone, so a method counts as used
when another object's attribute of the same name is, and a function
counts as used when a local variable shares its name.
"""
import ast
import pathlib

import efgc

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "efgc"


def _program_files() -> list[pathlib.Path]:
    files = [f for d in (PACKAGE, ROOT / "demos", ROOT / "perfbench") for f in d.glob("*.py")]
    return [f for f in files if not f.name.startswith("test_")]


def _public_definitions(tree: ast.Module) -> list[str]:
    """Public functions and classes at module level, and public methods
    of the classes at module level."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, kinds):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(item.name for item in node.body if isinstance(item, kinds))
    return [name for name in names if not name.startswith("_")]


def _used_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_or_exported():
    used = set(efgc.__all__)
    defined = {}
    for path in _program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used |= _used_names(tree)
        if path.parent == PACKAGE:
            for name in _public_definitions(tree):
                defined.setdefault(name, path.name)
    unused = sorted(f"{module}: {name}" for name, module in defined.items() if name not in used)
    assert not unused
