"""The slotted records: equal field by field, printed field by field, and
unhashable, since each is mutable."""

import pytest

from repairdx.abstraction import AbstractionMapping, AbstractionReport, Violation
from repairdx.metrics import aggregate
from repairdx.report import Provenance
from repairdx.tracking import CheckpointRecord, CheckpointSeries

RECORD = CheckpointRecord(step=0, n=1, valid_count=1, exact_match_count=1, copy_count=0,
                          modification_count=0, ned_stats=aggregate([0.0]))

# (a record, one equal to it, one that differs in one field)
CASES = [
    (CheckpointSeries([RECORD]), CheckpointSeries([RECORD]), CheckpointSeries()),
    (Provenance(seed=1, inputs={"corpus": "ab"}), Provenance(seed=1, inputs={"corpus": "ab"}),
     Provenance(seed=1, inputs={"corpus": "ab"}, version="0.0.0")),
    (AbstractionReport([Violation((0, 1), "m")]), AbstractionReport([Violation((0, 1), "m")]),
     AbstractionReport([Violation((0, 2), "m")])),
    (AbstractionMapping(methods=[("f", "METHOD_1")]), AbstractionMapping(methods=[("f", "METHOD_1")]),
     AbstractionMapping(types=[("f", "METHOD_1")])),
]


@pytest.mark.parametrize("i", range(len(CASES)), ids=[type(c[0]).__name__ for c in CASES])
def test_slotted_records_compare_field_by_field(i):
    record, equal, other = CASES[i]
    assert record == equal and not record != equal
    assert record != other and not record == other
    fields = tuple(getattr(record, f) for f in record.__slots__)
    unlike = CASES[(i + 1) % len(CASES)][0]  # a record of another class
    assert record != fields and record != unlike
    assert record.__eq__(fields) is NotImplemented
    assert record.__eq__(unlike) is NotImplemented
    with pytest.raises(TypeError):
        hash(record)


def test_slotted_records_print_every_field_in_slot_order():
    assert repr(CheckpointSeries()) == "CheckpointSeries(records=[])"
    assert repr(AbstractionReport([Violation((0, 1), "m")])) == (
        "AbstractionReport(violations=[Violation(span=(0, 1), message='m')])")
    assert repr(AbstractionMapping(types=[("T", "TYPE_1")])) == (
        "AbstractionMapping(variables=[], methods=[], types=[('T', 'TYPE_1')])")
    assert repr(Provenance(seed=2, tool="t", version="v")) == (
        "Provenance(seed=2, inputs={}, config={}, tool='t', version='v')")
