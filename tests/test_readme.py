"""The README's code runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_python_block(heading: str) -> str:
    """The first ```python block after the line ``heading``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    match = re.compile(r"^```python\n(.*?)^```$", re.M | re.S).search(text, start)
    assert match is not None, f"no python block under {heading!r}"
    return match.group(1)


def test_library_at_a_glance_runs(capsys):
    code = _first_python_block("## Library at a glance")
    exec(compile(code, f"{README.name} (Library at a glance)", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(math.isfinite(float(v)) for v in printed)
