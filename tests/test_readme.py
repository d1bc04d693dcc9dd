"""README's library example, run as written: every `# value` comment on a
print line must be what that line prints."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    checked = 0
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed = out.getvalue().splitlines()
        prints = [line for line in block.splitlines()
                  if line.startswith("print(")]
        # one printed line per print call, in order
        assert len(printed) == len(prints)
        for line, got in zip(prints, printed):
            comment = re.search(r"\)\s*#\s*(.*)$", line)
            if comment:
                assert got == comment.group(1), line
                checked += 1
    assert checked
