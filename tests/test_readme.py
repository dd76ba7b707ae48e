"""The library tour in README.md runs as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_readme_tour_runs_as_doctest():
    blocks = python_blocks(README.read_text())
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    examples = 0
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md[{i}]", str(README), 0)
        examples += len(test.examples)
        runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
    assert examples >= 12   # every block was found
