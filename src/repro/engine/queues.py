"""Fluid FIFO queues with exact age accounting.

The engine models event streams as fluid: per tick, fractional "parcels" of
events move between queues.  Each parcel remembers the (average) generation
time of the events it aggregates, so end-to-end delay is simply
``now - gen_time`` when a parcel reaches a sink - no per-event objects are
needed, yet FIFO ordering and ages are preserved exactly at parcel
granularity.

Crossing a WAN link with latency ``l`` makes a parcel *older* by ``l``
(``gen_time -= l``), which folds propagation delay into the same accounting.

Because the engine executes these operations for every (stage, site) and
every WAN flow on every tick, the queue exposes *fused, in-place* variants
of its hot paths alongside the simple list-based ones:

* :meth:`FluidQueue.pop_into` dequeues into a caller-reused buffer instead
  of building a fresh list;
* :meth:`FluidQueue.push_scaled` / :meth:`FluidQueue.push_aged` merge the
  ``scale_parcels``/``age_parcels`` + ``push_parcels`` pairs into single
  passes with no intermediate parcel lists;
* :meth:`FluidQueue.drop_oldest` discards head events without
  materializing the dropped parcels.

All fused variants perform bit-for-bit the same floating-point operations
in the same order as their compositional equivalents, so fixed seeds
produce identical simulations either way.

Snapshots are copy-on-write: :meth:`FluidQueue.clone_cow` shares the
parcel storage between the original and the clone, and the first mutation
on either side materializes a private copy.  An adaptation attempt that
touches three queues pays for three copies, not for every queue in the
runtime.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import SimulationError


@dataclass(slots=True)
class Parcel:
    """A fluid bucket of ``count`` events with a common generation time."""

    count: float
    gen_time_s: float


class FluidQueue:
    """FIFO queue of parcels supporting fractional pop/drop.

    Parcels pushed with (nearly) the same generation time are merged, so the
    queue length stays bounded by the number of distinct ticks events have
    been waiting.
    """

    _MERGE_EPS = 1e-6

    __slots__ = ("_parcels", "_count", "_shared")

    def __init__(self) -> None:
        self._parcels: deque[Parcel] = deque()
        self._count = 0.0
        #: True while ``_parcels`` (and the Parcel objects inside) may be
        #: shared with a copy-on-write clone; mutators materialize first.
        self._shared = False

    @property
    def count(self) -> float:
        """Total events queued."""
        return self._count

    def __bool__(self) -> bool:
        return bool(self._count > 1e-12)

    def __len__(self) -> int:
        return len(self._parcels)

    def _materialize(self) -> None:
        """Detach from any copy-on-write sharers before mutating."""
        self._parcels = deque(
            Parcel(p.count, p.gen_time_s) for p in self._parcels
        )
        self._shared = False

    def _drain_reset(self) -> None:
        """Normalize a (numerically) drained queue to the canonical empty
        state, exactly like the pre-COW implementation did on every pop."""
        if self._count < 1e-12:
            self._count = 0.0
            if self._shared:
                if self._parcels:
                    self._parcels = deque()
                    self._shared = False
            else:
                self._parcels.clear()

    def push(self, count: float, gen_time_s: float) -> None:
        """Enqueue ``count`` events generated (on average) at ``gen_time_s``."""
        count = float(count)
        if count < 0:
            raise SimulationError(f"cannot push negative count {count}")
        if count == 0:
            return
        if self._shared:
            self._materialize()
        parcels = self._parcels
        if (
            parcels
            and abs(parcels[-1].gen_time_s - gen_time_s) < self._MERGE_EPS
        ):
            parcels[-1].count += count
        else:
            parcels.append(Parcel(count, gen_time_s))
        self._count += count

    def push_parcels(self, parcels: list[Parcel]) -> None:
        for parcel in parcels:
            self.push(parcel.count, parcel.gen_time_s)

    def push_scaled(self, parcels: list[Parcel], factor: float) -> float:
        """Push ``parcels`` scaled by ``factor``; returns the scaled total.

        Fuses ``push_parcels(scale_parcels(parcels, factor))`` (plus the
        ``parcels_total`` of the scaled list) into one pass with no
        intermediate list.
        """
        if factor < 0:
            raise SimulationError(
                f"scale factor must be >= 0, got {factor}"
            )
        if factor == 0 or not parcels:
            return 0.0
        if self._shared:
            self._materialize()
        queue = self._parcels
        eps = self._MERGE_EPS
        total = 0.0
        for p in parcels:
            scaled = p.count * factor
            total += scaled
            if scaled == 0.0:
                continue
            if queue and abs(queue[-1].gen_time_s - p.gen_time_s) < eps:
                queue[-1].count += scaled
            else:
                queue.append(Parcel(scaled, p.gen_time_s))
            self._count += scaled
        return total

    def push_aged(self, parcels: list[Parcel], extra_age_s: float) -> None:
        """Push ``parcels`` aged by ``extra_age_s`` (WAN latency crossing).

        Fuses ``push_parcels(age_parcels(parcels, extra_age_s))`` into one
        pass with no intermediate list.
        """
        if extra_age_s < 0:
            raise SimulationError(
                f"extra_age_s must be >= 0, got {extra_age_s}"
            )
        if not parcels:
            return
        if self._shared:
            self._materialize()
        queue = self._parcels
        eps = self._MERGE_EPS
        for p in parcels:
            count = p.count
            if count == 0.0:
                continue
            gen = p.gen_time_s - extra_age_s
            if queue and abs(queue[-1].gen_time_s - gen) < eps:
                queue[-1].count += count
            else:
                queue.append(Parcel(count, gen))
            self._count += count

    def clone_cow(self) -> "FluidQueue":
        """Copy-on-write clone: O(1) now, pays the copy on first mutation.

        Both the clone and the original keep working exactly like
        independent queues; the parcel storage is shared only until either
        side mutates.  Used by the transactional adaptation executor so a
        snapshot of the whole runtime only copies the queues an adaptation
        attempt actually touches.
        """
        copy = FluidQueue.__new__(FluidQueue)
        copy._parcels = self._parcels
        copy._count = self._count
        copy._shared = True
        self._shared = True
        return copy

    def pop(self, count: float) -> list[Parcel]:
        """Dequeue up to ``count`` events FIFO; returns the parcels removed."""
        popped: list[Parcel] = []
        self.pop_into(count, popped)
        return popped

    def pop_into(self, count: float, out: list[Parcel]) -> float:
        """Dequeue up to ``count`` events FIFO, appending into ``out``.

        Returns the total events dequeued.  ``out`` is a caller-owned
        buffer (typically reused across calls) and receives the removed
        parcels in FIFO order; whole head parcels are transferred without
        copying.
        """
        if count < 0:
            raise SimulationError(f"cannot pop negative count {count}")
        remaining = min(count, self._count)
        if remaining > 1e-12 and self._shared:
            self._materialize()
        parcels = self._parcels
        popped_total = 0.0
        while remaining > 1e-12 and parcels:
            head = parcels[0]
            head_count = head.count
            if head_count <= remaining + 1e-12:
                out.append(head)
                remaining -= head_count
                self._count -= head_count
                popped_total += head_count
                parcels.popleft()
            else:
                out.append(Parcel(remaining, head.gen_time_s))
                head.count = head_count - remaining
                self._count -= remaining
                popped_total += remaining
                remaining = 0.0
        self._drain_reset()
        return popped_total

    def drop_oldest(self, count: float) -> float:
        """Discard up to ``count`` events from the head; returns dropped.

        Non-allocating: the dropped parcels are never materialized.
        """
        if count < 0:
            raise SimulationError(f"cannot pop negative count {count}")
        before = self._count
        remaining = min(count, self._count)
        if remaining > 1e-12 and self._shared:
            self._materialize()
        parcels = self._parcels
        while remaining > 1e-12 and parcels:
            head = parcels[0]
            head_count = head.count
            if head_count <= remaining + 1e-12:
                remaining -= head_count
                self._count -= head_count
                parcels.popleft()
            else:
                head.count = head_count - remaining
                self._count -= remaining
                remaining = 0.0
        self._drain_reset()
        return before - self._count

    def drop_older_than(self, cutoff_gen_time_s: float) -> float:
        """Discard every event generated before ``cutoff_gen_time_s``.

        This is the Degrade baseline's move: events whose age already exceeds
        the SLO are dropped rather than processed late (Section 8.4).
        FIFO order means stale parcels are all at the head.
        """
        parcels = self._parcels
        if not parcels or parcels[0].gen_time_s >= cutoff_gen_time_s:
            return 0.0
        if self._shared:
            self._materialize()
            parcels = self._parcels
        dropped = 0.0
        while parcels and parcels[0].gen_time_s < cutoff_gen_time_s:
            head_count = parcels[0].count
            dropped += head_count
            self._count -= head_count
            parcels.popleft()
        if self._count < 1e-12:
            self._count = 0.0
            parcels.clear()
        return dropped

    def oldest_gen_time_s(self) -> float | None:
        return self._parcels[0].gen_time_s if self._parcels else None

    def parcels(self) -> list[Parcel]:
        """Read-only copy of the queued parcels, oldest first.

        For inspection (invariant checkers, tests); never aliases the
        internal storage, so callers cannot perturb COW sharing.
        """
        return [Parcel(p.count, p.gen_time_s) for p in self._parcels]


def parcels_total(parcels: list[Parcel]) -> float:
    return sum(p.count for p in parcels)


def scale_parcels(parcels: list[Parcel], factor: float) -> list[Parcel]:
    """Multiply parcel counts by ``factor`` (selectivity, fan-out shares)."""
    if factor < 0:
        raise SimulationError(f"scale factor must be >= 0, got {factor}")
    if factor == 0:
        return []
    return [Parcel(p.count * factor, p.gen_time_s) for p in parcels]


def age_parcels(parcels: list[Parcel], extra_age_s: float) -> list[Parcel]:
    """Make parcels older by ``extra_age_s`` (WAN latency crossing)."""
    if extra_age_s < 0:
        raise SimulationError(f"extra_age_s must be >= 0, got {extra_age_s}")
    return [Parcel(p.count, p.gen_time_s - extra_age_s) for p in parcels]
