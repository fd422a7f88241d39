"""README's Library use examples run as written, and its verify table
matches the verify functions.

doctest on the raw Markdown would read each closing fence as expected
output, so the fenced python blocks are extracted first."""
import doctest
import inspect
import re
from pathlib import Path

from metacommute import verify

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest(
        "".join(blocks), {}, "README.md", str(README), 0
    )
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted > 0
    assert result.failed == 0, "".join(report)


def test_readme_verify_table_matches_the_verify_signatures():
    # the table lists each check once, in the CLI's order, with each flag's
    # default as the signature of verify_<check> gives it
    table = README.read_text().split("| check | flags, with their defaults |")[1]
    rows = re.findall(r"^\| (.*?) \| (.*?) \|", table.split("\n\n")[0], re.M)
    listed = []
    for checks, flags in rows:
        given = {name.replace("-", "_"): int(default)
                 for name, default in re.findall(r"`--([a-z-]+) (\d+)`", flags)}
        for check in re.findall(r"`(\w+)`", checks):
            params = inspect.signature(getattr(verify, "verify_" + check)).parameters
            assert given == {name: p.default for name, p in params.items()}, check
            listed.append(check)
    assert tuple(listed) == verify.CHECKS
