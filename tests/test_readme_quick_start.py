"""The README's Python quick start runs as printed.

The one ``python`` code block under "Library quick start" is executed
in a fresh namespace; it must finish with a Yes verdict whose witness
``verify_assignment`` accepts, so a quick start that names a function
the package no longer has, or calls one the wrong way, fails here.
"""
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md quick start", "exec"), namespace)
    assert namespace["verdict"].yes and namespace["report"].valid
