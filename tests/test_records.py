"""The value records are tuples with named fields: names and order, repr,
str where a record defines it, equality and hash as plain tuples, and no
per-instance dict.  A diagram's tuple order is its canonical order.  Every
value, records and the two algebra types, survives copy and pickle."""

import copy
import pickle

import pytest

from partalg.branching import Vertex
from partalg.diagrams import Diagram, enumerate_diagrams, parse_element
from partalg.geometry import AlcovePosition, position
from partalg.kronecker import MonotoneReport, SequenceEntry, check_monotone
from partalg.oracles import CheckResult, EdgeCase, EmbeddedPoint
from partalg.zpoly import ZPoly

ENTRIES = (SequenceEntry(0, 0, False), SequenceEntry(1, 0, False),
           SequenceEntry(2, 1, True))

# (record, fields, repr, str)
RECORDS = [
    (Vertex((2, 1), 6), ("shape", "level"),
     "Vertex(shape=(2, 1), level=6)", "(2,1, 6)"),
    (AlcovePosition("wall", 2), ("kind", "index"),
     "AlcovePosition(kind='wall', index=2)", "wall 2"),
    (SequenceEntry(4, 1, True), ("n", "g", "valid"),
     "SequenceEntry(n=4, g=1, valid=True)", None),
    (MonotoneReport((1,), (1,), (), ENTRIES, 1, 3, 2, True, (), 2),
     ("lam", "mu", "nu", "entries", "stable", "stable_at", "first_flat",
      "passed", "violations", "flat_at"),
     "MonotoneReport(lam=(1,), mu=(1,), nu=(), entries=("
     "SequenceEntry(n=0, g=0, valid=False), "
     "SequenceEntry(n=1, g=0, valid=False), "
     "SequenceEntry(n=2, g=1, valid=True)), stable=1, stable_at=3, "
     "first_flat=2, passed=True, violations=(), flat_at=2)", None),
    (EdgeCase("WALL_J", -1, 2), ("case", "delta", "coordinate"),
     "EdgeCase(case='WALL_J', delta=-1, coordinate=2)", None),
    (EmbeddedPoint(3, (2, 1), 6, 7), ("head", "shape", "level", "n"),
     "EmbeddedPoint(head=3, shape=(2, 1), level=6, n=7)",
     "(3 | 1,-1,-3,...)"),
    (CheckResult("step_residues", True, "9 pairs"), ("name", "ok", "detail"),
     "CheckResult(name='step_residues', ok=True, detail='9 pairs')", None),
    (Diagram(2, [[1, -2], [2], [-1]]), ("dots", "codes"),
     "[[1,2'],[2],[1']]", None),
]


@pytest.mark.parametrize("record, fields, text, printed", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_records_are_named_tuples(record, fields, text, printed):
    assert type(record)._fields == fields
    assert repr(record) == text
    assert str(record) == (text if printed is None else printed)
    plain = tuple(record)
    assert record == plain and hash(record) == hash(plain)
    assert not hasattr(record, "__dict__")


def test_records_compare_with_the_tuples_callers_write():
    assert Vertex((), 0) == ((), 0) and not hasattr(Vertex((), 0), "__dict__")
    assert position(Vertex((1,), 2), 3) in (("alcove", 1), ("wall", 0))
    assert check_monotone((1,), (1,), (), 2) == RECORDS[3][0]


@pytest.mark.parametrize("k", range(7))
def test_diagrams_enumerate_in_tuple_order(k):
    assert sorted(enumerate_diagrams(k)) == enumerate_diagrams(k)


VALUES = [r[0] for r in RECORDS] + [
    ZPoly((-1, 0, 3)),
    parse_element("(z-1)*[[1,2'],[2],[1']] + [[1,1'],[2,2']]", 4)]


@pytest.mark.parametrize("value", VALUES,
                         ids=[type(v).__name__ for v in VALUES])
def test_values_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and str(twin) == str(value)
