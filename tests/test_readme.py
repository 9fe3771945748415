"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_documented_results():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["k^1 + k/2", "False"]
