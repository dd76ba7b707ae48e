"""Fork-per-request execution of `partalg.cli.main`.

The parent imports partalg once.  Each request runs in a child forked from
that clean parent, so it starts with cold caches exactly like a fresh CLI
invocation, without paying interpreter start-up.  The child captures stdout
and stderr, sends them back over a pipe and leaves through `os._exit` on
every path.  At most one child exists at a time: the parent waits for it.
"""

from __future__ import annotations

import io
import os
import select
import signal
import struct
import sys
import time
import traceback
from typing import Callable, NamedTuple

# exit code of a child whose request raised instead of returning
CRASHED = 70
# exit code of a child the parent killed for running too long
TIMED_OUT = 71
REQUEST_TIMEOUT_S = 60.0

_FRAME = struct.Struct("<Q")


class Outcome(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    extra: bytes       # whatever the child hook returned (trace records)
    latency_s: float   # fork until reaped, including the transfer
    cpu_s: float       # child user + system time
    maxrss_kib: int


def cold_caches(caches) -> None:
    """Raise if any memo cache already holds entries.

    A child forked from a warm parent would skip work a fresh CLI process
    has to do, so every fork is preceded by this check.
    """
    warm = [f"{name} ({fn.cache_info().currsize} entries)"
            for name, fn in caches.items() if fn.cache_info().currsize]
    if warm:
        raise RuntimeError("parent caches are warm before fork: "
                           + ", ".join(warm))


def _frames(*chunks: bytes) -> bytes:
    return b"".join(_FRAME.pack(len(c)) + c for c in chunks)


def _unframe(data: bytes) -> list[bytes]:
    out, pos = [], 0
    while pos + _FRAME.size <= len(data):
        (size,) = _FRAME.unpack_from(data, pos)
        pos += _FRAME.size
        out.append(data[pos:pos + size])
        pos += size
    return out


def _child(main: Callable, argv, wfd: int,
           hook: Callable | None) -> None:
    """Run one request and leave the process; never returns."""
    code = CRASHED
    try:
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        finish = hook() if hook else None
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code if isinstance(exc.code, int) else (
                0 if exc.code is None else 2)
        except BaseException:
            traceback.print_exc(file=err)
            code = CRASHED
        extra = finish() if finish else b""
        payload = _frames(out.getvalue().encode(), err.getvalue().encode(),
                          extra)
        view = memoryview(payload)
        while view:
            view = view[os.write(wfd, view):]
    finally:
        os._exit(code & 0xFF)


def run_request(main: Callable, argv, hook: Callable | None = None,
                timeout_s: float = REQUEST_TIMEOUT_S) -> Outcome:
    """Fork, run main(argv) in the child, collect its output and rusage.

    hook, if given, runs in the child before main and returns a callable
    whose bytes are sent back as Outcome.extra.  With no time left the
    request is not started and counts as timed out.
    """
    if timeout_s <= 0:
        return Outcome(TIMED_OUT, b"", b"no time left", b"", 0.0, 0.0, 0)
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(main, argv, wfd, hook)
    os.close(wfd)
    chunks = []
    deadline = start + timeout_s
    killed = False
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if ready:
                chunk = os.read(rfd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - start
    frames = _unframe(b"".join(chunks))
    if killed:
        code, frames = TIMED_OUT, []
    else:
        code = os.waitstatus_to_exitcode(status)
    frames += [b""] * (3 - len(frames))
    return Outcome(code, frames[0], frames[1], frames[2], latency,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
