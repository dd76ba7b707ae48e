"""partalg benchmark: a closed loop of CLI requests, one client, one fork each.

    python3 bench/run.py --workload diagram_algebra --seed 0 --seconds 38 --trace 0

Stands in for a user who runs the `partalg` batch CLI and waits for each
answer.  The parent imports partalg once; every request runs
`partalg.cli.main(argv)` in a child forked from that parent, with cold
caches and captured stdout.  The workload's request list (fixed by the seed)
is repeated in passes, after a short untimed warm-up, until --seconds have
passed and at least 100 requests ran.  After the timed loop every
output is checked: exit code, the frozen sha256 for the default seed,
byte-identical output on every pass, and an invariant computed by another
route.

--trace 0 prints the end-to-end metrics; --trace 1 alternates plain and
traced passes and prints the per-layer metrics plus the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
import runner
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

MIN_REQUESTS = 100      # so that ten latency samples lie beyond p90
LOOP_LIMIT_S = 140      # a run must end within 180 s, checks included
SETUP_REPEATS = 8       # before the timed loop, and as many after it
WARMUP_REQUESTS = 10
CALIBRATION_LOOP = 2_000_000

END_TO_END = (
    ("setup_s", "s"), ("job_s", "s"), ("req_cpu_p50_ms", "ms"),
    ("req_cpu_p90_ms", "ms"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"),
)

SETUP_CODE = ("import sys, time, partalg.cli as cli; cli.build_parser(); "
              "sys.stdout.write(f'ready {time.process_time()!r}\\n'); "
              "sys.stdout.flush()")


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile, refused unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if q > 0.5 and len(ordered) - rank < 10:
        raise ValueError(f"{len(ordered)} samples leave fewer than ten "
                         f"beyond the {q:.0%} point")
    return ordered[rank - 1]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of machine speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return time.perf_counter() - start


def pin_one_cpu() -> int | None:
    """Keep this process and the children it forks on one CPU, the last
    one it may use, so that the steal of that CPU alone is the time the
    host held the benchmark from running.  None where affinity is not
    available."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_steal_s(cpu: int | None) -> float:
    """Seconds the hypervisor has held the CPU from running (the steal
    column of /proc/stat; all CPUs summed when cpu is None); 0 where the
    kernel does not report it."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] == label:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def measure_setup() -> list[tuple[float, float]]:
    """Fresh interpreters until partalg.cli is imported and its parser
    built: (CPU seconds the child reports at that moment, wall seconds
    until it says so) for each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            took = time.perf_counter() - start
            proc.stdout.read()
        word, _, cpu = line.decode().partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError("partalg.cli did not import in a fresh "
                               "interpreter")
        times.append((float(cpu), took))
    return times


class Result(NamedTuple):
    """What the parent keeps of one request.  Outputs are kept only for the
    pass the checks read: a parent that grows makes every later child's RSS
    grow with it."""

    code: int
    digest: str
    out_bytes: int
    stderr: bytes
    latency_s: float
    cpu_s: float
    maxrss_kib: int
    trace: dict | None


class Pass:
    """One run through the request list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.results: list[Result] = []
        self.stdout: list[bytes] = []   # only when asked to keep it
        self.wall_s = 0.0
        self.steal_s = 0.0  # host steal during the pass

    @property
    def busy_s(self) -> float:
        """Wall time less the time the host held the CPUs from us."""
        return self.wall_s - self.steal_s

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)


def run_pass(reqs, caches, traced: bool, keep_stdout: bool = False,
             deadline: float = math.inf, cpu: int | None = None) -> Pass:
    import partalg.cli as cli

    def main(argv):
        return cli.main(argv)   # looked up late: the tracer patches it

    result = Pass(traced)
    steal = host_steal_s(cpu)
    start = time.perf_counter()
    for i, req in enumerate(reqs):
        runner.cold_caches(caches)
        hook = (lambda i=i: tracing.install(i)) if traced else None
        left = min(runner.REQUEST_TIMEOUT_S, deadline - time.perf_counter())
        o = runner.run_request(main, req.argv, hook, left)
        result.results.append(Result(
            o.code, digest(o.stdout), len(o.stdout), o.stderr, o.latency_s,
            o.cpu_s, o.maxrss_kib, json.loads(o.extra) if o.extra else None))
        if keep_stdout:
            result.stdout.append(o.stdout)
    result.wall_s = time.perf_counter() - start
    result.steal_s = host_steal_s(cpu) - steal
    return result


def run_loop(reqs, caches, seconds: float, trace: bool,
             cpu: int | None = None) -> list[Pass]:
    """Plain passes (alternating with traced ones under --trace 1) while
    the next one, as long as the last of its kind, fits in the time; more
    if fewer than MIN_REQUESTS plain requests ran.  Nothing starts after
    LOOP_LIMIT_S.  The first WARMUP_REQUESTS requests run once before,
    untimed and unchecked."""
    start = time.perf_counter()
    run_pass(reqs[:WARMUP_REQUESTS], caches, False, cpu=cpu)
    passes: list[Pass] = []
    while True:
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        want_traced = trace and len(traced) < len(plain)
        same = [p for p in passes if p.traced == want_traced] or passes
        expected_end = (time.perf_counter() - start
                        + (same[-1].wall_s if same else 0.0))
        enough = (len(plain) * len(reqs) >= MIN_REQUESTS
                  and (traced or not trace))
        if enough and expected_end > seconds:
            return passes
        if time.perf_counter() - start > LOOP_LIMIT_S:
            return passes
        passes.append(run_pass(reqs, caches, want_traced,
                               keep_stdout=not passes,
                               deadline=start + LOOP_LIMIT_S, cpu=cpu))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify(reqs, passes: list[Pass], frozen: list[str] | None):
    """Failed-request count and the reasons, over every pass.

    The reference output of each request is its frozen digest when given,
    else its output on the first plain pass.
    """
    first = passes[0]
    reference = [r.digest for r in first.results]
    notes = []
    if frozen is not None:
        if frozen != reference:
            notes.append("outputs differ from the frozen default-seed "
                         "digests")
        reference = frozen + [None] * (len(reqs) - len(frozen))
    broken = {}
    for i, (req, res, out) in enumerate(zip(reqs, first.results,
                                            first.stdout)):
        if res.code != req.expect:
            continue
        try:
            reason = checks.check(req, out)
        except Exception as exc:  # a malformed output is a failed request
            reason = f"{type(exc).__name__}: {exc}"
        if reason:
            broken[i] = reason
    failed = 0
    for p in passes:
        for i, (req, res) in enumerate(zip(reqs, p.results)):
            reason = None
            if res.code != req.expect:
                reason = (f"exit {res.code}, expected {req.expect}: "
                          + res.stderr.decode(errors="replace")[-300:])
            elif res.digest != reference[i]:
                reason = "output differs from the reference digest"
            elif i in broken:
                reason = broken[i]
            if reason:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"request {i} {list(req.argv)[:8]}: "
                                 f"{reason}")
    return failed, notes


def end_to_end(setup: list[tuple[float, float]], passes: list[Pass]) -> dict:
    plain = [p for p in passes if not p.traced]
    cpu = [r.cpu_s for p in plain for r in p.results]
    return {
        "setup_s": statistics.median(c for c, _ in setup),
        "job_s": statistics.median(p.busy_s for p in plain),
        "req_cpu_p50_ms": percentile(cpu, 0.5) * 1e3,
        "req_cpu_p90_ms": percentile(cpu, 0.9) * 1e3,
        "cpu_s": statistics.median(p.cpu_s for p in plain),
        "peak_rss_mib": max(r.maxrss_kib for p in plain
                            for r in p.results) / 1024,
    }


def per_layer(passes: list[Pass]) -> dict:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass = [tracing.layer_metrics([r.trace for r in p.results if r.trace],
                                      sum(r.out_bytes for r in p.results))
                for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass)
           for name, _ in tracing.LAYER_METRICS}
    out["trace.overhead"] = (statistics.median(p.busy_s for p in traced)
                             / statistics.median(p.busy_s for p in plain))
    return out


def freeze_digests() -> int:
    """Rewrite the default seed's per-request stdout digests, after the
    same checks a run makes."""
    caches = tracing.memo_caches()
    runs = {name: run_pass(workloads.generate(name, workloads.DEFAULT_SEED),
                           caches, traced=False, keep_stdout=True)
            for name in workloads.WORKLOADS}
    # checks warm the parent's caches, so they follow the last fork
    frozen = {}
    for name, p in runs.items():
        reqs = workloads.generate(name, workloads.DEFAULT_SEED)
        failed, notes = verify(reqs, [p], None)
        if failed:
            print("\n".join([f"{name}: {failed} failed"] + notes),
                  file=sys.stderr)
            return 1
        frozen[name] = [r.digest for r in p.results]
    DIGESTS.write_text(json.dumps(frozen, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze-digests", action="store_true",
                        help="rewrite digests.json from the current code")
    args = parser.parse_args()

    if not (SRC / "partalg" / "cli.py").is_file():
        print(f"no partalg sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.freeze_digests:
        return freeze_digests()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    cpu = pin_one_cpu()
    diag = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "loadavg_before": os.getloadavg(),
            "calibration_before_s": calibrate()}
    setup = measure_setup()
    start = time.perf_counter()
    import partalg.cli as cli
    cli.build_parser()
    diag["parent_import_s"] = time.perf_counter() - start

    caches = tracing.memo_caches()
    reqs = workloads.generate(args.workload, args.seed)
    diag["parent_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    passes = run_loop(reqs, caches, args.seconds, bool(args.trace), cpu)
    setup += measure_setup()
    frozen = None
    if args.seed == workloads.DEFAULT_SEED:
        frozen = json.loads(DIGESTS.read_text()).get(args.workload, [])
    failed, notes = verify(reqs, passes, frozen)
    attempted = sum(len(p.results) for p in passes)
    plain = [p for p in passes if not p.traced]
    latencies = [r.latency_s for p in plain for r in p.results]
    diag.update({
        "calibration_after_s": calibrate(),
        "loadavg_after": os.getloadavg(),
        "setup_cpu_samples_s": [c for c, _ in setup],
        "setup_wall_samples_s": [w for _, w in setup],
        "job_wall_s": statistics.median(p.wall_s for p in plain),
        "req_wall_p50_ms": percentile(latencies, 0.5) * 1e3,
        "req_wall_p90_ms": percentile(latencies, 0.9) * 1e3,
        "steal_share": (sum(p.steal_s for p in passes)
                        / sum(p.wall_s for p in passes)),
        "requests_per_pass": len(reqs),
        "passes": sum(not p.traced for p in passes),
        "traced_passes": sum(p.traced for p in passes),
        "fail_ratio": failed / attempted,
        "notes": notes,
    })

    if args.trace:
        values = per_layer(passes)
        units = dict(tracing.LAYER_METRICS, **{"trace.overhead": "ratio"})
    else:
        values = end_to_end(setup, passes)
        units = dict(END_TO_END)
    per_pass = (f"({len(reqs)} requests per pass, "
                f"{diag['passes']} plain passes)")
    for name, value in values.items():
        print(f"{name:42s} {value:14.4f} {units[name]}"
              + (f" {per_pass}" if name == "job_s" else ""))
    print(f"{'fail_ratio':42s} {failed / attempted:14.4f} ratio "
          f"({failed} of {attempted} requests)")
    print("diagnostics " + json.dumps(diag))
    print(json.dumps({
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
