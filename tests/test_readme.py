"""README's Library use examples run as written.

doctest on the raw Markdown would read each closing fence as expected
output, so the fenced python blocks are extracted first."""
import doctest
import re
from pathlib import Path

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
