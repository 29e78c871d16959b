"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_its_commented_outputs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0] == "crossing 0.6435011087932844 3"
    assert lines[2] == "0.25"
    # both are written in the README, as comments
    assert "# crossing 0.6435011087932844 3" in code and "# 0.25" in code
