"""Buffered message passing between vertices (§3.4.1).

Vertices never write each other's state — they send messages, which the
worker threads buffer and deliver in batches, avoiding both races on
vertex state and per-message synchronisation.  Multicast sends one copy of
a message per *thread* rather than per recipient; vertex activation is a
data-free multicast.

Most algorithms' messages are commutative aggregations, so the buffer
supports *combiners* (sum/min/max): logical messages are counted and
charged individually, but deliveries to the same destination are combined
before ``run_on_message`` fires — the same trick Pregel-style systems use
to keep buffers small.

Combining is deterministic: one stable sort by *value* fixes the order in
which each destination's messages accumulate, so the result depends on
the message multiset only, never on send order.  No destination sort is
needed — destinations are combined by direct indexing (``bincount`` for
sums, ``ufunc.at`` for min/max).
"""

from typing import List, Optional, Tuple

import numpy as np

#: Supported combiners: how concurrent messages to one vertex collapse.
COMBINERS = ("sum", "min", "max")


def check_vertex_ids(ids: np.ndarray, num_vertices: Optional[int], what: str) -> None:
    """Raise ``ValueError`` if any of ``ids`` lies outside
    ``[0, num_vertices)`` (``None``: no upper bound).  The message names
    the smallest negative ID, else the largest too-large one; the check
    is one min/max pass, so callers run it once per drained batch."""
    if ids.size == 0:
        return
    low = int(ids.min())
    high = int(ids.max())
    if low < 0:
        bad = low
    elif num_vertices is not None and high >= num_vertices:
        bad = high
    else:
        return
    raise ValueError(
        f"{what} {bad} is out of range for a graph of num_vertices={num_vertices}"
    )


class MessageBuffer:
    """Accumulates one iteration's messages until the barrier delivery."""

    def __init__(
        self, combiner: Optional[str] = None, num_vertices: Optional[int] = None
    ) -> None:
        if combiner is not None and combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {combiner!r}; pick from {COMBINERS}")
        self.combiner = combiner
        #: Exclusive upper bound on destination IDs (``None``: unbounded);
        #: :meth:`deliver` rejects destinations outside ``[0, num_vertices)``.
        self.num_vertices = num_vertices
        self._dest_chunks: List[np.ndarray] = []
        self._value_chunks: List[np.ndarray] = []
        self._pending = 0
        self._peak_pending = 0

    def send(self, dests: np.ndarray, values) -> int:
        """Buffer messages ``values[i] -> dests[i]``; returns the count.

        ``values`` may be a scalar (multicast payload: one value to every
        destination) or an array aligned with ``dests``.
        """
        dests = np.atleast_1d(np.asarray(dests, dtype=np.int64))
        if dests.size == 0:
            return 0
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 0:
            values = np.broadcast_to(values, dests.shape)
        elif values.shape != dests.shape:
            raise ValueError("values must be scalar or match dests in shape")
        self._dest_chunks.append(dests)
        self._value_chunks.append(np.ascontiguousarray(values))
        self._pending += dests.size
        if self._pending > self._peak_pending:
            self._peak_pending = self._pending
        return int(dests.size)

    @property
    def pending(self) -> int:
        """Messages buffered and not yet delivered."""
        return self._pending

    def flush_due(self, threshold: int) -> bool:
        """Whether eager (in-iteration) delivery should fire.

        The async execution mode drains the buffer as soon as occupancy
        reaches ``threshold`` instead of waiting for the round barrier —
        the same per-thread flush rule real FlashGraph applies at
        ``message_flush_threshold`` messages (§3.4.1).  Delivery itself
        still goes through :meth:`deliver`, whose stable value sort
        keeps each destination's accumulation order deterministic no
        matter how often the buffer is drained.
        """
        return self._pending >= threshold > 0

    @property
    def peak_pending(self) -> int:
        """The largest buffer occupancy seen (memory accounting)."""
        return self._peak_pending

    def deliver(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drain the buffer, combining per destination.

        Returns ``(dests, values, counts)`` with ``dests`` unique and
        sorted and ``counts[i]`` the number of logical messages combined
        into delivery ``i`` (the receiver is charged per logical message).
        With no combiner, messages to the same destination stay separate
        (``dests`` may repeat, grouped and sorted; counts are all 1).
        Raises ``ValueError`` on a destination outside
        ``[0, num_vertices)``.
        """
        if not self._dest_chunks:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0), empty
        dests = np.concatenate(self._dest_chunks)
        values = np.concatenate(self._value_chunks)
        self._dest_chunks.clear()
        self._value_chunks.clear()
        self._pending = 0
        check_vertex_ids(dests, self.num_vertices, "message destination")
        if self.combiner is None:
            order = np.lexsort((values, dests))
            return dests[order], values[order], np.ones(dests.size, dtype=np.int64)
        # Canonical accumulation order: each destination folds its
        # messages in ascending value order (ties in send order), so the
        # combined result is a function of the message *multiset* only.
        # Buffered sends arrive in completion order, which device faults
        # (and their retries) legitimately perturb — without a canonical
        # order, float sums would differ in the last bits between a
        # fault-free run and a recovered one.  One stable value sort is
        # enough: grouping by destination never reorders the messages
        # within a destination, and the per-destination folds below index
        # by destination directly.
        order = np.argsort(values, kind="stable")
        ordered_dests = dests[order]
        ordered_values = values[order]
        counts = np.bincount(dests)
        unique = np.flatnonzero(counts)
        if self.combiner == "sum":
            # ``out[d] += w`` in array order from 0.0: the same float
            # operations as ``np.add.at`` over the same order.
            out = np.bincount(ordered_dests, weights=ordered_values)
        elif self.combiner == "min":
            out = np.full(counts.size, np.inf)
            np.minimum.at(out, ordered_dests, ordered_values)
        else:  # max
            out = np.full(counts.size, -np.inf)
            np.maximum.at(out, ordered_dests, ordered_values)
        return unique, out[unique], counts[unique]

    def restore_peak(self, peak: int) -> None:
        """Reinstate the peak-occupancy gauge from a checkpoint.

        At an iteration barrier the buffer itself is empty (delivery
        happened inside the iteration), so the monotone peak is the only
        state a resume needs to carry over for memory accounting.
        """
        if self._pending:
            raise RuntimeError("cannot restore the peak of a non-empty buffer")
        self._peak_pending = int(peak)

    def clear(self) -> None:
        """Drop everything without delivering."""
        self._dest_chunks.clear()
        self._value_chunks.clear()
        self._pending = 0
