"""IntervalCollection: construction invariants and bit-exact serialization."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zladder.intervals import IntervalCollection


def test_sorted_disjoint_enforced():
    with pytest.raises(ValueError):
        IntervalCollection(((0.0, 2.0), (1.0, 3.0)))
    with pytest.raises(ValueError):
        IntervalCollection(((3.0, 4.0), (0.0, 1.0)))


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        IntervalCollection(((1.0, 1.0),))


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        IntervalCollection(((0.0, 1.0),), "G3")


def test_measure_and_endpoints():
    c = IntervalCollection(((0.0, 1.0), (2.0, 2.5)), "G1")
    assert c.measure() == 1.5
    assert c.lows.tolist() == [0.0, 2.0]
    assert c.highs.tolist() == [1.0, 2.5]
    assert len(c) == 2


def test_union_merges_sorted():
    a = IntervalCollection(((0.0, 1.0), (4.0, 5.0)), "G1")
    b = IntervalCollection(((2.0, 3.0),), "G2")
    u = a.union(b)
    assert u.intervals == ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0))
    assert u.measure() == a.measure() + b.measure()


@st.composite
def _disjoint_pair(draw):
    """Two collections whose intervals, taken together, are pairwise disjoint."""
    ends = sorted(draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2, max_size=40, unique=True)))
    ivs = list(zip(ends[0::2], ends[1::2]))
    side = draw(st.lists(st.booleans(), min_size=len(ivs), max_size=len(ivs)))
    a = IntervalCollection(tuple(iv for iv, s in zip(ivs, side) if s), "G1")
    b = IntervalCollection(tuple(iv for iv, s in zip(ivs, side) if not s), "G2")
    return a, b


@settings(max_examples=100, deadline=None)
@given(pair=_disjoint_pair())
def test_union_of_disjoint_collections(pair):
    a, b = pair
    u = a.union(b)
    assert all(lo < hi for lo, hi in u.intervals)
    assert all(hi <= lo2 for (_, hi), (lo2, _) in zip(u.intervals, u.intervals[1:]))
    assert len(u) == len(a) + len(b)
    lengths = [hi - lo for lo, hi in a.intervals + b.intervals]
    assert math.fsum(hi - lo for lo, hi in u.intervals) == math.fsum(lengths)
    assert u.measure() == pytest.approx(a.measure() + b.measure(), rel=1e-12, abs=1e-9)


def test_json_round_trip_bit_exact():
    # awkward floats chosen to stress repr round-tripping
    ivs = ((0.1, 0.30000000000000004), (1e6 + 1e-9, 1e6 + 2.0000000000001))
    c = IntervalCollection(ivs, "mirrored-G1")
    back = IntervalCollection.from_json(c.to_json())
    assert back.intervals == c.intervals
    assert back.label == c.label


def test_schema_1_json_with_window_still_loads():
    # gsets wrote a "window" hull into g1.json / g2.json before schema 2
    text = ('{"intervals": [[1.0, 2.0], [3.0, 4.5]], "label": "G1", '
            '"schema_version": 1, "window": [0.5, 5.0]}')
    c = IntervalCollection.from_json(text)
    assert c == IntervalCollection(((1.0, 2.0), (3.0, 4.5)), "G1")


def test_csv_round_trip_bit_exact():
    ivs = ((17.845599540411847, 23.170282701246435), (100.0, 100.5))
    c = IntervalCollection(ivs, "G2")
    back = IntervalCollection.from_csv(c.to_csv())
    assert back.intervals == c.intervals
    assert back.label == c.label


def test_csv_bad_header_rejected():
    with pytest.raises(ValueError):
        IntervalCollection.from_csv("a,b,c\n1,2,G1\n")
