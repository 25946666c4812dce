import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    # the README's Library example, run as written: an API change that
    # breaks it fails here
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0] == "-1"
    complex(lines[1])
