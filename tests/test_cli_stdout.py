"""A reader that closes the CLI's stdout early is not a crash: the run exits
141 (128 + SIGPIPE) with nothing on stderr, whether the output is large
enough to fail mid-write or small enough to fail only at the final flush."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import partalg

SRC = Path(partalg.__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, read", [
    # ~160 KB, more than a pipe holds: fails inside the verb's write
    (["paths", "--k", "13", "--lambda", "1,1", "--max-k", "13"], 10),
    # one short line, buffered until the flush: the reader is gone first
    (["dims", "--k", "4"], 0),
])
def test_a_closed_stdout_exits_141_without_a_traceback(argv, read, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "partalg.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, env=env)
        head = proc.stdout.read(read)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err.seek(0)
        stderr = err.read()
    assert len(head) == read
    assert code == 141
    assert stderr == b""
