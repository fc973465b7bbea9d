"""Tests for run_variants - isolated, comparable multi-variant sweeps."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.baselines.variants import no_adapt, wasp
from repro.experiments.harness import DynamicsSpec, run_variants
from repro.experiments.scenarios import fig8_scenario
from repro.fuzz import InvariantChecker, build_run, generate_scenario
from repro.network.traces import paper_testbed
from repro.sim.schedule import Schedule
from repro.workloads.queries import ysb_advertising


def make_topology(rngs):
    return paper_testbed(rngs.stream("topology"))


def make_query(topology, rngs):
    return ysb_advertising(topology)


def make_dynamics(rngs):
    return DynamicsSpec(
        workload_schedule=Schedule([(0.0, 1.0), (30.0, 2.0)])
    )


class TestIsolation:
    def test_each_variant_gets_its_own_world(self):
        """Adaptations in one run must not leak into another: every variant
        re-creates the topology from the same seed."""
        results = run_variants(
            make_topology, make_query, [no_adapt(), wasp()], 90,
            make_dynamics, seed=7,
        )
        assert results["No Adapt"].topology is not results["WASP"].topology

    def test_identical_worlds_from_one_seed(self):
        results = run_variants(
            make_topology, make_query, [no_adapt(), wasp()], 30,
            make_dynamics, seed=7,
        )
        links_a = results["No Adapt"].topology.links()
        links_b = results["WASP"].topology.links()
        # Base capacities identical; only live factors may differ through
        # adaptation side effects (none here).
        assert [
            (l.src, l.dst, l.latency_ms) for l in links_a
        ] == [(l.src, l.dst, l.latency_ms) for l in links_b]

    def test_results_keyed_by_variant_name(self):
        results = run_variants(
            make_topology, make_query, [no_adapt()], 20, make_dynamics,
            seed=7,
        )
        assert set(results) == {"No Adapt"}

    def test_recorders_cover_full_duration(self):
        results = run_variants(
            make_topology, make_query, [no_adapt()], 25, make_dynamics,
            seed=7,
        )
        assert len(results["No Adapt"].recorder.samples) == 25

    def test_same_offered_load_across_variants(self):
        """Comparability: every variant faces the exact same workload."""
        results = run_variants(
            make_topology, make_query, [no_adapt(), wasp()], 60,
            make_dynamics, seed=7,
        )
        offered = {
            name: run.recorder.total_offered()
            for name, run in results.items()
        }
        values = list(offered.values())
        assert values[0] == pytest.approx(values[1])


class TestLifetime:
    def test_finished_run_is_freed_without_the_cyclic_gc(self):
        """A finished run holds no reference cycle: dropping the results
        frees the run, its manager and its runtime by reference counting
        alone, so a sweep's memory does not wait for the cyclic GC."""
        scenario = fig8_scenario("topk-topics")
        gc.disable()
        try:
            results = run_variants(
                scenario.make_topology, scenario.make_query, [wasp()], 60,
                scenario.make_dynamics,
            )
            run = results["WASP"]
            assert run.manager is not None
            refs = [weakref.ref(o) for o in (run, run.manager, run.runtime)]
            del run, results
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_checked_chaos_run_is_freed_without_the_cyclic_gc(self):
        """The chaos injector and the invariant checker reach the run only
        weakly, so a fuzz scenario run with both attached is freed by
        reference counting alone - while the checker (whose violations
        the campaign still reads) stays alive."""
        spec = dataclasses.replace(generate_scenario(0), duration_s=60.0)
        assert spec.faults
        gc.disable()
        try:
            run, dynamics = build_run(spec)
            checker = InvariantChecker()
            run.attach_checker(checker)
            run.run(spec.duration_s, dynamics)
            assert run._chaos is not None and checker.ticks_checked > 0
            refs = [
                weakref.ref(o)
                for o in (run, run.manager, run.runtime, run._chaos)
            ]
            del run
            assert [ref() for ref in refs] == [None, None, None, None]
            assert checker.violations == []
        finally:
            gc.enable()
