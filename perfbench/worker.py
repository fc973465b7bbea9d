"""One benchmark process: import the package, build a workload, run it.

Run by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src``; prints one JSON object as its last stdout line.

Modes:

* ``setup``: stop at the first tick and report when it was reached.
* ``run``: the untraced run.  Passes over the same world repeat while
  another pass still fits in ``--seconds`` (at least one runs); every
  ``ExperimentRun.step`` is timed from outside.
* ``trace``: untraced and traced passes alternate the same way; the
  traced passes feed the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

import workloads
from spans import CONTROL_PLANE, SpanRecorder

#: Invariant classes of ``repro.fuzz.InvariantChecker`` reported per layer.
INVARIANTS = (
    "alpha-cap",
    "conservation",
    "full-deployment",
    "migration-arithmetic",
    "migration-minmax",
    "queue-nonnegative",
    "rollback-digest",
    "scale-law",
    "slot-feasibility",
    "state-nonnegative",
)


class SetupReached(BaseException):
    """Raised at the first tick of a ``setup`` probe.

    A ``BaseException`` so that no ``except Exception`` in the program
    (the fuzz campaign folds crashes into violations) swallows it.
    """


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile; raises ``ValueError`` on no values."""
    if not values:
        raise ValueError("percentile of no values")
    import numpy  # loaded by ``repro`` already; kept out of import timing

    return float(numpy.percentile(values, q))


class StepClock:
    """Times every ``ExperimentRun.step`` and remembers the runs stepped.

    A step ran an adaptation round when the run's controller has just
    drained its metric window (``manager.monitor.pending_ticks == 0``).
    """

    def __init__(self, *, stop_at_first: bool = False) -> None:
        self.stop_at_first = stop_at_first
        self.first_step_at: float | None = None
        self.step_s: list[float] = []
        self.round_s: list[float] = []
        self.runs: list = []
        self.watch_backlog = False
        self.peak_backlog = 0.0
        self._original = None

    def install(self) -> None:
        from repro.experiments.harness import ExperimentRun

        original = ExperimentRun.step
        self._original = original
        clock = time.perf_counter
        seen = self.runs

        def step(run, *args, **kwargs):
            if self.first_step_at is None:
                self.first_step_at = time.monotonic()
                if self.stop_at_first:
                    raise SetupReached
            if not seen or seen[-1] is not run:
                seen.append(run)
            t0 = clock()
            sample = original(run, *args, **kwargs)
            dt = clock() - t0
            self.step_s.append(dt)
            manager = run.manager
            if manager is not None and manager.monitor.pending_ticks == 0:
                self.round_s.append(dt)
            if self.watch_backlog:
                self.peak_backlog = max(
                    self.peak_backlog, run.runtime.total_backlog()
                )
            return sample

        ExperimentRun.step = step

    def uninstall(self) -> None:
        from repro.experiments.harness import ExperimentRun

        ExperimentRun.step = self._original

    def take_runs(self) -> list:
        runs = list(self.runs)
        self.runs.clear()
        return runs


class PassStats:
    """What one pass's runs showed, read from their public state.

    Runs are folded in as each unit ends and then dropped, so memory does
    not grow with the number of passes.
    """

    def __init__(self) -> None:
        self.delays: list[float] = []
        self.offered = 0.0
        self.dropped = 0.0
        self.committed = 0
        self.attempted = 0
        self.rolled_back = 0
        self.state_mb = 0.0
        self.faults = 0

    def add(self, run) -> None:
        recorder = run.recorder
        self.offered += recorder.total_offered()
        self.dropped += recorder.total_dropped()
        self.faults += len(recorder.faults)
        manager = run.manager
        if manager is None:
            return
        self.delays.extend(float(d) for d in recorder.delay_series() if d == d)
        self.committed += len(manager.history)
        self.attempted += len(manager.attempt_log)
        self.rolled_back += sum(
            1 for a in manager.attempt_log if a.outcome == "rolled-back"
        )
        self.state_mb += sum(
            r.migration.total_mb for r in manager.history if r.migration
        )

    def sim_metrics(self) -> dict[str, float]:
        """Pooled delay p95 of the adapting runs; processed share of all."""
        return {
            "sim_delay_p95_s": percentile(self.delays, 95),
            "sim_processed_fraction": (
                max(0.0, 1.0 - self.dropped / self.offered)
                if self.offered
                else 1.0
            ),
        }

    def exercise_counts(self) -> dict[str, float]:
        return {
            "adapt.committed": self.committed,
            "adapt.attempted": self.attempted,
            "adapt.rolled_back": self.rolled_back,
            "adapt.commit_ratio": (
                self.committed / self.attempted if self.attempted else 0.0
            ),
            "migration.state_mb": self.state_mb,
            "chaos.faults_fired": self.faults,
        }


class PassResult:
    """Outcome of one pass over the workload's units."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.steps = 0
        self.outcomes: list[workloads.RunOutcome] = []
        self.stats = PassStats()

    def checks(self) -> dict[str, int]:
        """Invariant evaluations per invariant class over the pass."""
        out = dict.fromkeys(INVARIANTS, 0)
        for outcome in self.outcomes:
            for name, n in outcome.checks.items():
                if name in out:
                    out[name] += n
        return out


def run_pass(
    units: list[workloads.Unit], clock: StepClock, order: random.Random
) -> PassResult:
    """Run every unit once, in an order drawn from ``order``.

    Outcomes are kept in the units' own order.  A unit that raises is a
    failed run.
    """
    result = PassResult()
    result.outcomes = [workloads.RunOutcome("")] * len(units)
    steps_before = len(clock.step_s)
    t0 = time.perf_counter()
    for i in order.sample(range(len(units)), len(units)):
        unit = units[i]
        try:
            outcome = unit.call()
        except Exception as exc:  # noqa: BLE001 - a failed run is a result
            outcome = workloads.RunOutcome(
                "", f"raised {type(exc).__name__}: {exc}"
            )
        result.outcomes[i] = outcome
        for run in clock.take_runs():
            result.stats.add(run)
    result.wall_s = time.perf_counter() - t0
    result.steps = len(clock.step_s) - steps_before
    return result


def check_passes(passes: list[PassResult]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure lines) over all passes.

    Beyond each run's own failure, a run whose recorder digest differs from
    the same unit's digest in the first pass (same seed, same process)
    fails too.
    """
    attempted = failed = 0
    lines: list[str] = []
    first = passes[0].outcomes
    for n, p in enumerate(passes):
        for u, outcome in enumerate(p.outcomes):
            attempted += 1
            why = outcome.failure
            if why is None and n > 0 and outcome.digest != first[u].digest:
                why = "recorder digest differs from the first pass"
            if why is not None:
                failed += 1
                lines.append(f"pass {n} unit {u}: {why}")
    return attempted, failed, lines


def workload_digest(p: PassResult) -> str:
    h = hashlib.sha256()
    for outcome in p.outcomes:
        h.update(f"{outcome.digest}\n".encode())
    return h.hexdigest()


def measure(
    workload: str,
    world_seed: int,
    seed: int,
    seconds: float,
    mode: str,
    *,
    tiny: bool = False,
    out_dir: Path | None = None,
) -> dict:
    """Import the package, build the workload's world and run it in ``mode``.

    ``world_seed`` fixes every simulated input; ``seed`` only orders the
    units within each pass (a fresh order per pass).
    """
    t_import = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t_import
    units = workloads.WORKLOADS[workload](world_seed, tiny)
    order = random.Random(seed)
    clock = StepClock(stop_at_first=mode == "setup")
    clock.install()
    if mode == "setup":
        try:
            run_pass(units[:1], clock, order)
        except SetupReached:
            return {"first_step_at": clock.first_step_at}
        raise RuntimeError(f"{workload} never reached its first tick")

    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    spans = SpanRecorder()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(run_pass(units, clock, order))
        if mode == "trace":
            clock.uninstall()
            spans.install()
            clock.install()
            clock.watch_backlog = True
            traced.append(run_pass(units, clock, order))
            clock.watch_backlog = False
            clock.uninstall()
            spans.uninstall()
            clock.install()
        # Stop before a round that would overrun ``seconds``.
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    clock.uninstall()

    passes = untraced + traced
    attempted, failed, failures = check_passes(passes)
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digest": workload_digest(untraced[0]),
        "passes": len(untraced),
    }
    if mode == "run":
        run_wall = sum(p.wall_s for p in untraced)
        result.update(
            ticks=sum(p.steps for p in untraced),
            run_wall_s=run_wall,
            steps_timed=len(clock.step_s),
            step_ms_p50=1e3 * percentile(clock.step_s, 50),
            step_ms_p99=1e3 * percentile(clock.step_s, 99),
            rounds_timed=len(clock.round_s),
            round_ms_p50=1e3 * percentile(clock.round_s, 50),
            pass_walls_s=[p.wall_s for p in untraced],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            **untraced[0].stats.sim_metrics(),
        )
        return result

    n_traced = len(traced)
    layers = spans.per_layer()
    per_layer: dict[str, float] = {"import.repro_s": import_s}
    total_self = sum(self_s for _, self_s, _ in layers.values())
    control_self = 0.0
    for layer, (calls, self_s, _) in layers.items():
        per_layer[f"{layer}.calls"] = calls / n_traced
        per_layer[f"{layer}.self_s"] = self_s / n_traced
        if layer in CONTROL_PLANE:
            control_self += self_s
    solves, _, infeasible = layers["planner.placement.solve_placement"]
    per_layer["control_plane.self_share"] = (
        control_self / total_self if total_self else 0.0
    )
    per_layer["placement.attempted"] = solves / n_traced
    per_layer["placement.feasible"] = (solves - infeasible) / n_traced
    per_layer["placement.feasible_ratio"] = (
        (solves - infeasible) / solves if solves else 0.0
    )
    per_layer.update(traced[0].stats.exercise_counts())
    for name, checks in traced[0].checks().items():
        per_layer[f"checker.{name}.checks"] = checks
    per_layer["backlog.peak"] = clock.peak_backlog
    per_layer["trace.overhead_s"] = percentile(
        [p.wall_s for p in traced], 50
    ) - percentile([p.wall_s for p in untraced], 50)
    result["per_layer"] = per_layer
    if out_dir is not None:
        spans.write(out_dir / f"spans-{workload}.tsv")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    result = measure(
        args.workload,
        args.world_seed,
        args.seed,
        args.seconds,
        args.mode,
        tiny=args.tiny,
        out_dir=args.out_dir,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
