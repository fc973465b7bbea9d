"""Differential and property tests for the dense (numpy SoA) backend.

Three layers of evidence that ``repro.engine.dense`` is a faithful drop-in
for the reference per-parcel engine:

* **Fuzz differential**: generated scenarios (chaos faults included) run
  under both backends; run-level aggregates must agree within tolerances.
  Tolerances are loose on delay because the dense backend's age buckets
  mix generation times *within* a bucket: after an adaptation reshuffles
  queues mid-run the per-tick delay can transiently diverge, which in turn
  can shift a near-threshold controller decision by one monitoring
  interval.  Raw engine ticks (no adaptations) agree to ~1e-13.
* **Determinism**: the same dense spec twice produces bit-identical
  recorder digests, and dense scenarios pass the full invariant checker
  (mass conservation, queue non-negativity, slot feasibility, ...).
* **Kernel properties**: Hypothesis drives the fused pop kernel against a
  naive per-bucket ledger, checking FIFO order and mass conservation.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.dense import _DRAIN_EPS, DenseEngineRuntime, _pop_rows
from repro.engine.runtime import EngineRuntime, mbps_to_eps
from repro.fuzz.campaign import recorder_digest, run_scenario
from repro.fuzz.generate import build_run, generate_scenario
from repro.network.monitor import WanMonitor
from tests.engine.test_runtime import build_pipeline

#: Seeds chosen to cover quiet runs, adaptation-heavy runs (0, 7, 9) and
#: drop-heavy overload runs where delay tolerance matters (2, 5).
DIFF_SEEDS = [0, 1, 2, 5, 7, 9]


def _with_backend(spec, backend: str):
    return dataclasses.replace(
        spec,
        config_overrides={
            **spec.config_overrides,
            "engine_backend": backend,
        },
    )


def _run_aggregates(spec) -> dict:
    run, dynamics = build_run(spec)
    run.run(spec.duration_s, dynamics)
    recorder = run.recorder
    return {
        "runtime": run.runtime,
        "processed": recorder.total_processed(),
        "fraction": recorder.processed_fraction(),
        "mean_delay": recorder.mean_delay(),
        "p99_delay": recorder.delay_percentile(0.99),
        "adaptations": len(recorder.adaptations),
    }


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_fuzz_differential(seed: int) -> None:
    """Reference and dense agree on run-level aggregates per fuzz seed."""
    spec = generate_scenario(seed)
    ref = _run_aggregates(_with_backend(spec, "reference"))
    dense = _run_aggregates(_with_backend(spec, "dense"))

    assert isinstance(ref["runtime"], EngineRuntime)
    assert not isinstance(ref["runtime"], DenseEngineRuntime)
    assert isinstance(dense["runtime"], DenseEngineRuntime)

    assert _rel(ref["processed"], dense["processed"]) < 0.02
    assert abs(ref["fraction"] - dense["fraction"]) < 0.02
    # Delay metrics carry the bucket-mixing divergence (see module docs):
    # require agreement to 30% relative or 0.5 s absolute, whichever is
    # looser.  Calibrated worst case across the seed set is 20% relative
    # on a drop-heavy overload run.
    for key in ("mean_delay", "p99_delay"):
        assert (
            _rel(ref[key], dense[key]) < 0.30
            or abs(ref[key] - dense[key]) < 0.5
        ), f"{key}: reference={ref[key]} dense={dense[key]}"
    # Adaptation counts may shift by one round on near-threshold runs.
    assert abs(ref["adaptations"] - dense["adaptations"]) <= 1


def test_dense_backlog_matches_reference_exactly() -> None:
    """End-of-run queue backlogs are bit-equal on a quiet scenario."""
    spec = generate_scenario(1)
    ref = _run_aggregates(_with_backend(spec, "reference"))
    dense = _run_aggregates(_with_backend(spec, "dense"))
    assert ref["runtime"].total_backlog() == dense["runtime"].total_backlog()


@pytest.mark.parametrize("seed", [0, 2])
def test_dense_is_deterministic(seed: int) -> None:
    """Same dense spec twice -> bit-identical recorder digests."""
    spec = _with_backend(generate_scenario(seed), "dense")
    digests = []
    for _ in range(2):
        run, dynamics = build_run(spec)
        run.run(spec.duration_s, dynamics)
        digests.append(recorder_digest(run.recorder))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("seed", [0, 2, 5, 7])
def test_dense_passes_invariant_checker(seed: int) -> None:
    """Dense scenarios run clean under the full runtime invariant suite."""
    spec = _with_backend(generate_scenario(seed), "dense")
    result = run_scenario(spec, verify_digest=(seed == 0))
    assert result.ok, [
        f"t={v.t_s} {v.invariant}: {v.detail}" for v in result.violations
    ]
    assert result.ticks > 0


def test_link_redefined_between_ticks(small_topology) -> None:
    """``Topology.set_link`` after the first tick: the dense link budgets
    and the WAN monitor's next refresh must both see the new capacity."""
    flow_eps = mbps_to_eps(10.0, 100.0)
    key = ("src", "agg", "edge-x", "dc-1")
    sent = {}
    for runtime_cls in (EngineRuntime, DenseEngineRuntime):
        topology = copy.deepcopy(small_topology)
        runtime = build_pipeline(
            topology, rate=flow_eps * 4, runtime_cls=runtime_cls
        )
        monitor = WanMonitor(topology, np.random.default_rng(0))
        sent[runtime_cls] = [runtime.tick().net_sent[key] for _ in range(5)]
        monitor.refresh(5.0)
        topology.set_link("edge-x", "dc-1", 20.0, 50.0)
        sent[runtime_cls] += [runtime.tick().net_sent[key] for _ in range(5)]
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 10.0
        monitor.refresh(10.0)
        assert monitor.bandwidth_mbps("edge-x", "dc-1") == 20.0
    assert sent[EngineRuntime] == sent[DenseEngineRuntime]
    assert sent[DenseEngineRuntime][4] == pytest.approx(flow_eps)
    assert sent[DenseEngineRuntime][5] == pytest.approx(2 * flow_eps)


# --------------------------------------------------------------------------- #
# Kernel properties (Hypothesis vs a naive per-bucket ledger)
# --------------------------------------------------------------------------- #

counts = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
gen_times = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def _naive_pop_row(c_row, m_row, cap):
    """Scalar oldest-first pop: the ledger the fused kernel must match."""
    B = len(c_row)
    take = np.zeros(B)
    tm = np.zeros(B)
    remaining = cap
    for j in range(B - 1, -1, -1):
        t = min(remaining, c_row[j])
        take[j] = t
        if c_row[j] > 0.0:
            tm[j] = m_row[j] * (t / c_row[j])
        remaining -= t
    return take, tm


@st.composite
def pop_cases(draw):
    n_rows = draw(st.integers(min_value=1, max_value=4))
    n_buckets = draw(st.integers(min_value=4, max_value=8))
    cnt = np.array(
        [
            [draw(counts) for _ in range(n_buckets)]
            for _ in range(n_rows)
        ]
    )
    gen = np.array(
        [
            [draw(gen_times) for _ in range(n_buckets)]
            for _ in range(n_rows)
        ]
    )
    caps = np.array(
        [
            draw(
                st.floats(
                    min_value=0.0,
                    max_value=3e6,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
            for _ in range(n_rows)
        ]
    )
    return cnt, cnt * gen, caps


@given(pop_cases())
@settings(max_examples=200, deadline=None)
def test_pop_rows_conserves_mass(case) -> None:
    cnt0, mass0, caps = case
    cnt = cnt0.copy()
    mass = mass0.copy()
    rows = np.arange(cnt.shape[0])
    take, tm, popped, before = _pop_rows(cnt, mass, rows, caps)

    total = float(cnt0.sum())
    tol = 1e-6 + 1e-9 * total
    mass_tol = 1e-6 + 1e-9 * float(np.abs(mass0).sum())

    # Bounds: never pop more than a bucket holds, never negative.
    assert (take >= -tol).all()
    assert (take <= cnt0 + tol).all()
    # Popped totals: exactly min(cap, queued), split across buckets.
    np.testing.assert_allclose(before, cnt0.sum(axis=1), atol=tol)
    np.testing.assert_allclose(popped, np.minimum(caps, before), atol=tol)
    np.testing.assert_allclose(take.sum(axis=1), popped, atol=tol)
    # Conservation: what left plus what stayed is what was there.
    np.testing.assert_allclose(cnt + take, cnt0, atol=tol)
    np.testing.assert_allclose(mass + tm, mass0, atol=mass_tol)
    # Fully drained rows are snapped to exactly zero (no residue).
    drained = before - popped < _DRAIN_EPS
    assert (cnt[drained] == 0.0).all()
    assert (mass[drained] == 0.0).all()


@given(pop_cases())
@settings(max_examples=200, deadline=None)
def test_pop_rows_matches_naive_ledger(case) -> None:
    """FIFO (oldest-bucket-first) order and per-bucket splits match the
    scalar ledger within float-reassociation tolerance."""
    cnt0, mass0, caps = case
    cnt = cnt0.copy()
    mass = mass0.copy()
    rows = np.arange(cnt.shape[0])
    take, tm, _, _ = _pop_rows(cnt, mass, rows, caps)

    tol = 1e-6 + 1e-9 * float(cnt0.sum())
    mass_tol = 1e-3 + 1e-9 * float(np.abs(mass0).sum())
    for i in range(cnt0.shape[0]):
        naive_take, naive_tm = _naive_pop_row(cnt0[i], mass0[i], caps[i])
        np.testing.assert_allclose(take[i], naive_take, atol=tol)
        np.testing.assert_allclose(tm[i], naive_tm, atol=mass_tol)
