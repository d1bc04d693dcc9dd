"""README's library example, run as written: every `# value` comment on a
print line must be what that line prints."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


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


def test_every_name_in_backticks_resolves():
    # a name README writes as `name(...)`, `_name` or `CapWords` must be
    # an attribute of a zecap module or of one of the model's classes, so
    # a deleted function cannot stay documented
    import zecap.capacity
    import zecap.cli
    import zecap.construct
    import zecap.model
    import zecap.search

    owners = [zecap.capacity, zecap.cli, zecap.construct, zecap.model,
              zecap.search, zecap.model.ChannelGraph, zecap.model.Digraph,
              zecap.model.Code]
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", prose):
        found = (re.match(r"([A-Za-z_]\w*)\(", span)
                 or re.fullmatch(r"(_\w+)", span)
                 or re.fullmatch(r"([A-Z][a-z]+(?:[A-Z][a-z0-9]*)*)", span))
        if found:
            names.add(found.group(1))
    assert len(names) >= 17
    missing = sorted(name for name in names
                     if not any(hasattr(o, name) for o in owners))
    assert missing == []


def test_numpy_floor_matches_pyproject():
    # README's Requirements line and the declared dependency name one
    # numpy floor
    declared = re.findall(r'"numpy>=([\d.]+)"', PYPROJECT.read_text())
    stated = re.findall(r"numpy ([\d.]+)\+", README.read_text())
    assert declared and stated == declared


def test_report_lower_bounds_are_what_readme_says():
    # the F and G rows' lower bounds are verified codes; the L row's is
    # a count only, since the no-isolated-ones family is not an L code
    # from n = 4 on, the pair README names being the first found
    from zecap.construct import (FAMILIES, TRIBONACCI_SET,
                                 largest_block_class, ministring_code,
                                 verify_code)
    from zecap.model import STAR_L, TRIANGLE_F, TRIANGLE_G

    for n in range(2, 13):
        F = largest_block_class(ministring_code(TRIBONACCI_SET, n),
                                TRIBONACCI_SET, "011")
        assert verify_code(F, TRIANGLE_F).passed
        assert verify_code(FAMILIES["oddrun"](n), TRIANGLE_G).passed
        assert verify_code(FAMILIES["no-isolated-ones"](n), STAR_L).passed \
            == (n < 4)
    report = verify_code(FAMILIES["no-isolated-ones"](4), STAR_L)
    assert report.failures == [("0110", "0111")]
    assert "(0110, 0111) confusable" in README.read_text()
