"""Unit and property tests for the message buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import COMBINERS, MessageBuffer


def reference_deliver(combiner, dests, values):
    """The former delivery, kept as the oracle: a global (dest, value)
    lexsort, ``np.unique`` over the sorted destinations and ``ufunc.at``
    into the compacted output.  ``MessageBuffer.deliver`` must match it
    bit for bit."""
    order = np.lexsort((values, dests))
    dests = dests[order]
    values = values[order]
    if combiner is None:
        return dests, values, np.ones(dests.size, dtype=np.int64)
    unique, inverse, counts = np.unique(dests, return_inverse=True, return_counts=True)
    if combiner == "sum":
        out = np.zeros(unique.size)
        np.add.at(out, inverse, values)
    elif combiner == "min":
        out = np.full(unique.size, np.inf)
        np.minimum.at(out, inverse, values)
    else:
        out = np.full(unique.size, -np.inf)
        np.maximum.at(out, inverse, values)
    return unique, out, counts


class TestSend:
    def test_scalar_broadcast(self):
        buf = MessageBuffer("sum")
        count = buf.send(np.array([1, 2, 3]), 5.0)
        assert count == 3
        assert buf.pending == 3

    def test_array_values(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1, 2]), np.array([1.0, 2.0]))
        dests, values, counts = buf.deliver()
        assert dests.tolist() == [1, 2]
        assert values.tolist() == [1.0, 2.0]

    def test_empty_send(self):
        buf = MessageBuffer("sum")
        assert buf.send(np.array([], dtype=np.int64), 1.0) == 0

    def test_shape_mismatch_rejected(self):
        buf = MessageBuffer("sum")
        with pytest.raises(ValueError):
            buf.send(np.array([1, 2]), np.array([1.0, 2.0, 3.0]))

    def test_unknown_combiner_rejected(self):
        with pytest.raises(ValueError):
            MessageBuffer("median")

    def test_peak_pending(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1, 2, 3]), 1.0)
        buf.deliver()
        buf.send(np.array([1]), 1.0)
        assert buf.peak_pending == 3


class TestDeliver:
    def test_sum_combiner(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1, 2, 1]), np.array([1.0, 2.0, 3.0]))
        dests, values, counts = buf.deliver()
        assert dests.tolist() == [1, 2]
        assert values.tolist() == [4.0, 2.0]
        assert counts.tolist() == [2, 1]

    def test_min_combiner(self):
        buf = MessageBuffer("min")
        buf.send(np.array([5, 5, 7]), np.array([3.0, 1.0, 9.0]))
        dests, values, counts = buf.deliver()
        assert dests.tolist() == [5, 7]
        assert values.tolist() == [1.0, 9.0]

    def test_max_combiner(self):
        buf = MessageBuffer("max")
        buf.send(np.array([0, 0]), np.array([2.0, 8.0]))
        _, values, _counts = buf.deliver()
        assert values.tolist() == [8.0]

    def test_no_combiner_keeps_duplicates(self):
        buf = MessageBuffer(None)
        buf.send(np.array([2, 1, 2]), np.array([1.0, 2.0, 3.0]))
        dests, values, counts = buf.deliver()
        assert dests.tolist() == [1, 2, 2]
        assert sorted(values[1:].tolist()) == [1.0, 3.0]
        assert counts.tolist() == [1, 1, 1]

    def test_deliver_empties(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1]), 1.0)
        buf.deliver()
        assert buf.pending == 0
        dests, values, counts = buf.deliver()
        assert dests.size == 0 and values.size == 0 and counts.size == 0

    def test_multiple_sends_accumulate(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1]), 1.0)
        buf.send(np.array([1]), 2.0)
        _, values, _counts = buf.deliver()
        assert values.tolist() == [3.0]

    def test_clear(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([1]), 1.0)
        buf.clear()
        assert buf.pending == 0
        dests, _, _ = buf.deliver()
        assert dests.size == 0


class TestProperties:
    @given(
        sends=st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=10),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_sum_combiner_conserves_mass(self, sends):
        buf = MessageBuffer("sum")
        total = 0.0
        for dests, value in sends:
            buf.send(np.asarray(dests), value)
            total += value * len(dests)
        _, values, _counts = buf.deliver()
        assert values.sum() == pytest.approx(total, abs=1e-9)

    @given(
        sends=st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=10),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_min_combiner_matches_reference(self, sends):
        buf = MessageBuffer("min")
        reference = {}
        for dests, value in sends:
            buf.send(np.asarray(dests), value)
            for d in dests:
                reference[d] = min(reference.get(d, np.inf), value)
        dests, values, counts = buf.deliver()
        assert dests.tolist() == sorted(reference)
        for d, v in zip(dests, values):
            assert v == pytest.approx(reference[int(d)])


#: Values that stress the canonical order: signed zeros, infinities, NaN
#: and repeats (ties keep send order under the stable value sort).
_EDGE_VALUES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 0.1])
_VALUES = st.one_of(_EDGE_VALUES, st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _send_sequences(draw):
    """Multi-chunk send sequences in a random (permuted) order; each
    chunk is a multicast scalar or an aligned value array."""
    chunks = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        size = draw(st.integers(min_value=1, max_value=12))
        dests = draw(st.lists(st.integers(0, 15), min_size=size, max_size=size))
        if draw(st.booleans()):
            values = draw(_VALUES)
        else:
            values = draw(st.lists(_VALUES, min_size=size, max_size=size))
        chunks.append((np.asarray(dests, dtype=np.int64), values))
    order = draw(st.permutations(range(len(chunks))))
    return [chunks[i] for i in order]


class TestReferenceOracle:
    @given(
        combiner=st.sampled_from((None,) + COMBINERS),
        sends=_send_sequences(),
    )
    @settings(max_examples=300, deadline=None)
    def test_deliver_matches_reference_bit_for_bit(self, combiner, sends):
        buf = MessageBuffer(combiner, num_vertices=16)
        for dests, values in sends:
            buf.send(dests, values)
        all_dests = np.concatenate([d for d, _ in sends])
        all_values = np.concatenate(
            [np.broadcast_to(np.asarray(v, dtype=np.float64), d.shape) for d, v in sends]
        )
        with np.errstate(all="ignore"):
            got = buf.deliver()
            expected = reference_deliver(combiner, all_dests, all_values)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and g.shape == e.shape
            assert np.array_equal(g.view(np.int64), e.view(np.int64))


class TestDestinationRange:
    @pytest.mark.parametrize("combiner", (None,) + COMBINERS)
    @pytest.mark.parametrize("bad", [-1, 16, 99])
    def test_out_of_range_destination_rejected(self, combiner, bad):
        buf = MessageBuffer(combiner, num_vertices=16)
        buf.send(np.array([3, bad, 5]), 1.0)
        with pytest.raises(ValueError, match=rf"destination {bad} .*num_vertices=16"):
            buf.deliver()

    def test_unbounded_buffer_still_rejects_negative(self):
        buf = MessageBuffer("sum")
        buf.send(np.array([10**6]), 1.0)
        assert buf.deliver()[0].tolist() == [10**6]
        buf.send(np.array([-2]), 1.0)
        with pytest.raises(ValueError, match="destination -2 "):
            buf.deliver()
