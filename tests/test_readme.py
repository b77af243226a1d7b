"""The README's ``python`` blocks run, in order, in one namespace.

A renamed or removed public name then fails the suite instead of
rotting in the docs.  The blocks run from the repository root, where
the README's relative paths point.
"""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.S | re.M)
    assert len(blocks) >= 2
    monkeypatch.chdir(ROOT)
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
