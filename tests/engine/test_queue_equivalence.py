"""Randomized equivalence: the optimized FluidQueue vs reference semantics.

The hot-path rewrite (in-place fused ops, copy-on-write sharing, reused
pop buffers) must be *behaviour-preserving*: every operation has to leave
bit-identical counts, parcel lists and return values compared to the
original list-building implementation.  ``ReferenceQueue`` below is that
original implementation, kept verbatim; a seeded random op stream drives
both side by side and compares exhaustively after every step.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.queues import (
    FluidQueue,
    Parcel,
    age_parcels,
    parcels_total,
    scale_parcels,
)

SEEDS = [7, 42, 20201207]


class ReferenceQueue:
    """The pre-optimization FluidQueue semantics, list-based and eager."""

    _MERGE_EPS = 1e-6

    def __init__(self) -> None:
        self._parcels: list[Parcel] = []
        self._count = 0.0

    @property
    def count(self) -> float:
        return self._count

    def __bool__(self) -> bool:
        return bool(self._count > 1e-12)

    def push(self, count: float, gen_time_s: float) -> None:
        count = float(count)
        if count == 0:
            return
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

    def pop(self, count: float) -> list[Parcel]:
        parcels = self._parcels
        remaining = min(count, self._count)
        popped: list[Parcel] = []
        while remaining > 1e-12 and parcels:
            head = parcels[0]
            head_count = head.count
            if head_count <= remaining + 1e-12:
                popped.append(head)
                remaining -= head_count
                self._count -= head_count
                parcels.pop(0)
            else:
                popped.append(Parcel(remaining, head.gen_time_s))
                head.count = head_count - remaining
                self._count -= remaining
                remaining = 0.0
        if self._count < 1e-12:
            self._count = 0.0
            parcels.clear()
        return popped

    def drop_oldest(self, count: float) -> float:
        before = self._count
        self.pop(count)
        return before - self._count

    def drop_older_than(self, cutoff_gen_time_s: float) -> float:
        parcels = self._parcels
        dropped = 0.0
        while parcels and parcels[0].gen_time_s < cutoff_gen_time_s:
            head_count = parcels[0].count
            dropped += head_count
            self._count -= head_count
            parcels.pop(0)
        if self._count < 1e-12:
            self._count = 0.0
            parcels.clear()
        return dropped

    def clear(self) -> float:
        dropped = self._count
        self._parcels.clear()
        self._count = 0.0
        return dropped


def assert_equal_state(fluid: FluidQueue, ref: ReferenceQueue) -> None:
    assert fluid.count == ref.count  # bit-exact, no tolerance
    fluid_parcels = [(p.count, p.gen_time_s) for p in fluid._parcels]
    ref_parcels = [(p.count, p.gen_time_s) for p in ref._parcels]
    assert fluid_parcels == ref_parcels


def random_parcels(rng: random.Random, now: float) -> list[Parcel]:
    return [
        Parcel(rng.uniform(0.0, 50.0), now - rng.uniform(0.0, 30.0))
        for _ in range(rng.randrange(0, 6))
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_op_stream_matches_reference(seed: int) -> None:
    rng = random.Random(seed)
    fluid, ref = FluidQueue(), ReferenceQueue()
    now = 0.0
    cow_clones: list[FluidQueue] = []
    for step in range(3000):
        now += rng.uniform(0.0, 2.0)
        op = rng.randrange(8)
        if op in (0, 1, 2):  # bias toward pushes so queues stay non-trivial
            count = rng.choice([0.0, rng.uniform(0.0, 200.0)])
            gen = now - rng.uniform(0.0, 5.0)
            fluid.push(count, gen)
            ref.push(count, gen)
        elif op == 3:
            amount = rng.uniform(0.0, 150.0)
            got_ref = ref.pop(amount)
            if rng.random() < 0.5:
                got = fluid.pop(amount)
            else:
                got = []
                total = fluid.pop_into(amount, got)
                assert total == parcels_total(got_ref)
            assert [(p.count, p.gen_time_s) for p in got] == [
                (p.count, p.gen_time_s) for p in got_ref
            ]
        elif op == 4:
            amount = rng.uniform(0.0, 150.0)
            assert fluid.drop_oldest(amount) == ref.drop_oldest(amount)
        elif op == 5:
            cutoff = now - rng.uniform(0.0, 10.0)
            assert fluid.drop_older_than(cutoff) == ref.drop_older_than(
                cutoff
            )
        elif op == 6:
            # Drain everything, as the engine does through drop_oldest.
            assert fluid.drop_oldest(fluid.count) == ref.clear()
        else:
            # Copy-on-write clones must never disturb the original, no
            # matter how the clone is mutated afterwards.
            clone = fluid.clone_cow()
            if rng.random() < 0.5:
                clone.push(rng.uniform(0.0, 30.0), now)
                clone.pop(rng.uniform(0.0, 60.0))
            cow_clones.append(clone)
        assert_equal_state(fluid, ref)
    assert len(cow_clones) > 10  # the stream actually exercised COW


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_push_variants_match_compositions(seed: int) -> None:
    rng = random.Random(seed)
    now = 0.0
    for _ in range(300):
        now += rng.uniform(0.0, 3.0)
        parcels = random_parcels(rng, now)

        factor = rng.choice([0.0, rng.uniform(0.0, 2.0)])
        fused, composed = FluidQueue(), ReferenceQueue()
        seeded = random_parcels(rng, now)
        fused.push_parcels(seeded)
        composed.push_parcels(seeded)
        scaled = scale_parcels(parcels, factor)
        total = fused.push_scaled(parcels, factor)
        composed.push_parcels(scaled)
        assert total == parcels_total(scaled)
        assert_equal_state(fused, composed)

        age = rng.uniform(0.0, 4.0)
        fused, composed = FluidQueue(), ReferenceQueue()
        fused.push_parcels(seeded)
        composed.push_parcels(seeded)
        fused.push_aged(parcels, age)
        composed.push_parcels(age_parcels(parcels, age))
        assert_equal_state(fused, composed)


def test_clone_cow_restores_exactly_after_mutation() -> None:
    queue = FluidQueue()
    for i in range(20):
        queue.push(10.0 + i, float(i))
    snapshot = queue.clone_cow()
    before = [(p.count, p.gen_time_s) for p in queue._parcels]
    queue.pop(55.0)
    queue.push(3.0, 99.0)
    queue.drop_oldest(7.0)
    restored = snapshot.clone_cow()
    assert [(p.count, p.gen_time_s) for p in restored._parcels] == before
    assert restored.count == sum(c for c, _ in before)
    # The snapshot itself is still intact for a second restore.
    again = snapshot.clone_cow()
    assert [(p.count, p.gen_time_s) for p in again._parcels] == before
