"""Per-layer tracing of `partalg`, from outside the library.

`install()` runs in a forked request child.  It replaces each traced
function, in every partalg module that binds it, with a wrapper that records
a span (calls, inclusive and self time) or a counter, so the source tree is
never touched.  Spans nest: a span's self time is its duration minus the
time of the spans it encloses.  Recursive cached functions carry a
re-entrancy guard, giving one span per top-level call.

A name the library no longer has is skipped, and its metrics read 0.  The
child aggregates its spans and counters per name and sends them back, tagged
with the request id; the parent sums them per pass (`layer_metrics`).
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from collections import Counter

PACKAGE = "partalg"

# (home module, attribute, span name); every span counts calls as well
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("diagrams", "enumerate_diagrams", "diagrams.enumerate_diagrams"),
    ("diagrams", "parse_element", "diagrams.parse_element"),
    ("diagrams", "AlgebraElement.__mul__", "diagrams.element_mul"),
    ("diagrams", "compose", "diagrams.compose"),
    ("zpoly", "ZPoly.__mul__", "zpoly.mul"),
    ("zpoly", "ZPoly.__add__", "zpoly.add"),
    ("branching", "vertices_at_level", "branching.vertices_at_level"),
    ("branching", "enumerate_paths", "branching.enumerate_paths"),
    ("branching", "check_path", "branching.check_path"),
    ("geometry", "embed", "geometry.embed"),
    ("geometry", "classify", "geometry.classify"),
    ("geometry", "reflected_vertex", "geometry.reflected_vertex"),
    ("geometry", "embedded_path", "geometry.embedded_path"),
    ("modules", "block_chain", "modules.block_chain"),
    ("modules", "decomposition_row", "modules.decomposition_row"),
    ("modules", "permissible_paths", "modules.permissible_paths"),
    ("modules", "simple_dimension", "modules.simple_dimension"),
    ("modules", "radical_dimension", "modules.radical_dimension"),
    ("modules", "restrict_cell", "modules.restrict_cell"),
    ("modules", "restrict_simple", "modules.restrict_simple"),
    ("modules", "first_semisimple_n", "modules.first_semisimple_n"),
    ("residues", "linkage_classes", "residues.linkage_classes"),
    ("residues", "brute_force_linkage_classes",
     "residues.brute_force_linkage_classes"),
    ("kronecker", "padded_kronecker", "kronecker.padded_kronecker"),
    ("kronecker", "kronecker_coefficient", "kronecker.kronecker_coefficient"),
    ("kronecker", "kronecker_sequence", "kronecker.kronecker_sequence"),
    ("kronecker", "stable_kronecker", "kronecker.stable_kronecker"),
    ("kronecker", "check_monotone", "kronecker.check_monotone"),
    ("dot", "emit_dot", "dot.emit_dot"),
)

# recursive cached functions: one span per top-level call
GUARDED_SPANS = (
    ("branching", "cell_dimension", "branching.cell_dimension"),
    ("kronecker", "mn_character", "kronecker.mn_character"),
)

# (home module, attribute, counter): calls only, no timing
COUNTS = (
    ("branching", "parents", "branching.parents.calls"),
    ("diagrams", "Diagram.__lt__", "diagrams.lt.calls"),
    ("diagrams", "Diagram.__init__", "diagrams.construct.calls"),
    ("partitions", "check_partition", "partitions.check_partition.calls"),
    ("partitions", "addable_nodes", "partitions.node_ops"),
    ("partitions", "removable_nodes", "partitions.node_ops"),
    ("partitions", "add_node", "partitions.node_ops"),
    ("partitions", "remove_node", "partitions.node_ops"),
    ("residues", "content_vector", "residues.content_vector.calls"),
)

# memo caches read at request end: (home module, attribute, metric prefix)
CACHES = (
    ("branching", "cell_dimension", "branching.cell_dimension"),
    ("modules", "_simple_dimension", "modules.simple_dimension"),
    ("kronecker", "mn_character", "kronecker.mn_character"),
)


def partalg_modules() -> list:
    """The partalg package and every submodule it ships, imported."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def find(modules: list, home: str, attr: str):
    """(owner, object) for attr, looked up in its home module first,
    then in any partalg module (functions move between modules); None when
    the library no longer has it."""
    owner_path, _, name = attr.rpartition(".")
    first = [m for m in modules if m.__name__ == f"{PACKAGE}.{home}"]
    for mod in first + modules:
        owner = mod
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        if owner is not None and name in vars(owner):
            return owner, vars(owner)[name]
    return None


def memo_caches() -> dict:
    """Every module-level memo cache in partalg, by qualified name."""
    out = {}
    for mod in partalg_modules():
        for name, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)):
                out.setdefault(f"{value.__module__}.{name}", value)
    return out


class Tracer:
    """Spans and counters of one request, aggregated by name."""

    def __init__(self):
        self.modules = partalg_modules()
        self.spans: dict[str, list[int]] = {}   # name -> [calls, ns, self ns]
        self.counters: Counter = Counter()
        self.stack: list[list[int]] = []        # child ns of each open span

    def span(self, name: str, fn, guarded: bool = False):
        stats = self.spans.setdefault(name, [0, 0, 0])
        stack = self.stack
        clock = time.perf_counter_ns
        active = [False]

        def wrapper(*args, **kwargs):
            if guarded and active[0]:
                stats[0] += 1
                return fn(*args, **kwargs)
            active[0] = True
            inner = [0]
            stack.append(inner)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - inner[0]
                active[0] = False

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_items(self, name: str, gen):
        """Wrap a generator function, counting the items it yields."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            for item in gen(*args, **kwargs):
                counters[name] += 1
                yield item

        return wrapper

    def count_len(self, name: str, fn):
        """Wrap fn, adding the length of each result to a counter."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name] += len(result)
            return result

        return wrapper

    def patch(self, home: str, attr: str, make) -> None:
        """Replace attr everywhere partalg binds it by make(original)."""
        found = find(self.modules, home, attr)
        if found is None:
            return
        owner, original = found
        wrapper = make(original)
        for target in [owner] + self.modules:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)


def install(request_id: int):
    """Trace partalg in this process.  Returns a finish callable that reads
    the memo caches and serialises the request's record."""
    tr = Tracer()
    caches = []
    for home, attr, prefix in CACHES:
        found = find(tr.modules, home, attr)
        if found and callable(getattr(found[1], "cache_info", None)):
            caches.append((prefix, found[1]))

    for home, attr, name in SPANS:
        tr.patch(home, attr, lambda fn, name=name: tr.span(name, fn))
    for home, attr, name in GUARDED_SPANS:
        tr.patch(home, attr, lambda fn, name=name: tr.span(name, fn, True))
    for home, attr, name in COUNTS:
        tr.patch(home, attr, lambda fn, name=name: tr.count(name, fn))
    tr.patch("partitions", "partitions_of", lambda fn: tr.count_items(
        "partitions.partitions_of.items", fn))
    # cycle types summed: the partitions kronecker iterates over
    kron = find(tr.modules, "kronecker", "partitions_of")
    if kron is not None and kron[0].__name__ == f"{PACKAGE}.kronecker":
        kron[0].partitions_of = tr.count_items("kronecker.classes_summed",
                                               kron[1])
    tr.patch("diagrams", "enumerate_diagrams",
             lambda fn: tr.count_len("diagrams.enumerate_diagrams.out", fn))
    tr.patch("modules", "permissible_paths",
             lambda fn: tr.count_len("modules.permissible_returned", fn))
    # paths enumerated in all, and inside an open permissible_paths call
    open_permissible = [0]

    def enumerated(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tr.counters["branching.paths_out"] += len(result)
            if open_permissible[0]:
                tr.counters["modules.permissible_enumerated"] += len(result)
            return result
        return wrapper

    def opens_permissible(fn):
        def wrapper(*args, **kwargs):
            open_permissible[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                open_permissible[0] -= 1
        return wrapper

    tr.patch("branching", "enumerate_paths", enumerated)
    tr.patch("modules", "permissible_paths", opens_permissible)

    def finish() -> bytes:
        cache_stats = {}
        for prefix, fn in caches:
            info = fn.cache_info()
            cache_stats[prefix] = [info.hits, info.misses, info.currsize]
        return json.dumps({"request": request_id, "spans": tr.spans,
                           "counters": tr.counters,
                           "caches": cache_stats}).encode()

    return finish


# --- per-layer metrics from a pass's records ---------------------------------

LAYER_METRICS = (
    # name, unit
    ("cli.self_ms", "ms"), ("cli.build_parser_ms", "ms"),
    ("cli.out_bytes", "bytes"),
    ("partitions.partitions_of.items", "count"),
    ("partitions.check_partition.calls", "count"),
    ("partitions.node_ops", "count"),
    ("zpoly.mul.calls", "count"), ("zpoly.add.calls", "count"),
    ("zpoly.self_ms", "ms"),
    ("diagrams.enumerate_diagrams.ms", "ms"),
    ("diagrams.enumerate_diagrams.out", "count"),
    ("diagrams.lt.calls", "count"), ("diagrams.construct.calls", "count"),
    ("diagrams.element_mul.ms", "ms"), ("diagrams.compose.calls", "count"),
    ("diagrams.compose.ms", "ms"), ("diagrams.parse_element.ms", "ms"),
    ("branching.enumerate_paths.ms", "ms"), ("branching.paths_out", "count"),
    ("branching.check_path.calls", "count"),
    ("branching.check_path.ms", "ms"), ("branching.parents.calls", "count"),
    ("branching.cell_dimension.hits", "count"),
    ("branching.cell_dimension.misses", "count"),
    ("geometry.classify.calls", "count"), ("geometry.embed.calls", "count"),
    ("geometry.reflected_vertex.calls", "count"), ("geometry.self_ms", "ms"),
    ("modules.permissible_paths.ms", "ms"),
    ("modules.permissible_yield", "ratio"),
    ("modules.permissible_returned", "count"),
    ("modules.permissible_enumerated", "count"),
    ("modules.simple_dimension.ms", "ms"),
    ("modules.simple_dimension.hits", "count"),
    ("modules.simple_dimension.misses", "count"),
    ("modules.block_chain.calls", "count"),
    ("modules.first_semisimple_n.ms", "ms"),
    ("residues.linkage_classes.ms", "ms"),
    ("residues.brute_force_linkage_classes.ms", "ms"),
    ("residues.content_vector.calls", "count"),
    ("kronecker.stable_kronecker.ms", "ms"),
    ("kronecker.kronecker_coefficient.calls", "count"),
    ("kronecker.classes_summed", "count"),
    ("kronecker.kronecker_sequence.ms", "ms"),
    ("kronecker.check_monotone.ms", "ms"),
    ("kronecker.mn_character.hits", "count"),
    ("kronecker.mn_character.misses", "count"),
    ("kronecker.mn_character.size", "count"),
    ("dot.emit_dot.ms", "ms"),
)


def layer_metrics(records: list[dict], out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass from its requests' trace records.

    Times and counts are summed over the pass; a cache size is the largest
    any request reached.
    """
    spans: dict[str, list[int]] = {}
    values: Counter = Counter()
    sizes: dict[str, int] = {}
    for rec in records:
        for name, stats in rec["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0])
            for i, v in enumerate(stats):
                acc[i] += v
        values.update(rec["counters"])
        for prefix, (hits, misses, size) in rec["caches"].items():
            values[f"{prefix}.hits"] += hits
            values[f"{prefix}.misses"] += misses
            sizes[f"{prefix}.size"] = max(sizes.get(f"{prefix}.size", 0), size)
    values.update(sizes)
    for name, (calls, ns, _) in spans.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.ms"] = ns / 1e6

    def self_ms(prefix):
        return sum(v[2] for k, v in spans.items()
                   if k.startswith(prefix)) / 1e6

    values["cli.self_ms"] = self_ms("cli.main")
    values["cli.build_parser_ms"] = values["cli.build_parser.ms"]
    values["cli.out_bytes"] = out_bytes
    values["zpoly.self_ms"] = self_ms("zpoly.")
    values["geometry.self_ms"] = self_ms("geometry.")
    returned = values["modules.permissible_returned"]
    enumerated = values["modules.permissible_enumerated"]
    values["modules.permissible_yield"] = (returned / enumerated
                                           if enumerated else 0.0)
    return {name: values[name] for name, _ in LAYER_METRICS}
