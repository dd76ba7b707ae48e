"""The library tour and the CLI block in README.md run as written."""

import doctest
import re
import shlex
from pathlib import Path

import partalg.cli as cli

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


def test_readme_cli_block_runs(capsys):
    section = README.read_text().split("\n## CLI\n", 1)[1]
    lines = re.search(r"^```sh\n(.*?)^```$", section,
                      re.M | re.S).group(1).splitlines()
    assert len(lines) == 14
    assert [line for line in lines if "# ->" in line] == [
        'partalg simple-dim --k 6 --n 2 --lambda ""        # -> {"dim":4}']
    for line in lines:
        command, _, expected = line.partition("# ->")
        argv = shlex.split(command.split(" > ")[0])
        assert argv[0] == "partalg", line
        assert cli.main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if expected:
            assert out == expected.strip() + "\n", line
