"""In-memory span recorder for the traced run.

:class:`SpanRecorder` wraps the program's public entry points from outside
(class attributes and module-level functions are swapped for timing
wrappers, and swapped back on :meth:`SpanRecorder.uninstall`).  Each call
records a span: name, start, end and parent.  Spans stay in memory until
:meth:`SpanRecorder.write` dumps them when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

#: (layer, module, attribute) for every entry point the traced run wraps.
#: ``Class.method`` attributes are also wrapped on subclasses that
#: override them; plain functions are rebound in every ``repro`` module
#: that imported them by name.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("experiments.harness.init", "repro.experiments.harness", "ExperimentRun.__init__"),
    ("experiments.harness.step", "repro.experiments.harness", "ExperimentRun.step"),
    ("planner.cost.choose_best_deployment", "repro.planner.cost", "choose_best_deployment"),
    ("engine.runtime.tick", "repro.engine.runtime", "EngineRuntime.tick"),
    ("engine.runtime.mutation_snapshot", "repro.engine.runtime", "EngineRuntime.mutation_snapshot"),
    ("engine.runtime.restore_mutation_snapshot", "repro.engine.runtime", "EngineRuntime.restore_mutation_snapshot"),
    ("engine.checkpoint.checkpoint_all", "repro.engine.checkpoint", "CheckpointCoordinator.checkpoint_all"),
    ("engine.metrics.collect", "repro.engine.metrics", "GlobalMetricMonitor.collect"),
    ("network.monitor.refresh", "repro.network.monitor", "WanMonitor.refresh"),
    ("core.controller.adaptation_round", "repro.core.controller", "ReconfigurationManager.adaptation_round"),
    ("core.estimator.estimate", "repro.core.estimator", "WorkloadEstimator.estimate"),
    ("core.diagnosis.diagnose", "repro.core.diagnosis", "Diagnoser.diagnose"),
    ("core.policy.decide", "repro.core.policy", "AdaptationPolicy.decide"),
    ("core.replanning.propose", "repro.core.replanning", "Replanner.propose"),
    ("planner.placement.solve_placement", "repro.planner.placement", "solve_placement"),
    ("core.migration.plan_migration", "repro.core.migration", "plan_migration"),
    ("chaos.injector.tick", "repro.chaos.injector", "ChaosInjector.tick"),
    ("fuzz.invariants.on_report", "repro.fuzz.invariants", "InvariantChecker.on_report"),
    ("fuzz.invariants.on_step_end", "repro.fuzz.invariants", "InvariantChecker.on_step_end"),
    ("sim.recorder.record_tick", "repro.sim.recorder", "RunRecorder.record_tick"),
)

#: The layers that make up the control plane (monitoring, decision and
#: re-planning); their share of all self time is a per-layer metric.
CONTROL_PLANE = frozenset(
    {
        "engine.metrics.collect",
        "network.monitor.refresh",
        "core.controller.adaptation_round",
        "core.estimator.estimate",
        "core.diagnosis.diagnose",
        "core.policy.decide",
        "core.replanning.propose",
        "planner.placement.solve_placement",
        "core.migration.plan_migration",
    }
)


def _subclasses(cls: type) -> list[type]:
    out: list[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class SpanRecorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layers = [layer for layer, _, _ in ENTRY_POINTS]
        self._layer_id = {layer: i for i, layer in enumerate(self.layers)}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        #: Indices of spans whose call raised.
        self.raised: set[int] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #

    def _wrap(self, layer: str, fn):
        lid = self._layer_id[layer]
        stack = self._stack
        layers, starts, ends, parents = (
            self.layer,
            self.start,
            self.end,
            self.parent,
        )
        raised = self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A subclass override calling super() stays one span.
            if stack and layers[stack[-1]] == lid:
                return fn(*args, **kwargs)
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.add(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` undoes it."""
        for layer, module_name, attr_path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = attr_path.rpartition(".")
            if owner_name:
                base = getattr(module, owner_name)
                for cls in [base, *_subclasses(base)]:
                    if attr in vars(cls):
                        self._patch(cls, attr, self._wrap(layer, vars(cls)[attr]))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def per_layer(self) -> dict[str, tuple[int, float, int]]:
        """``layer -> (calls, self seconds, calls that raised)``."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        failed = [0] * len(self.layers)
        for i in range(n):
            lid = self.layer[i]
            calls[lid] += 1
            self_s[lid] += self.end[i] - self.start[i] - child[i]
        for i in self.raised:
            failed[self.layer[i]] += 1
        return {
            layer: (calls[i], self_s[i], failed[i])
            for i, layer in enumerate(self.layers)
        }

    def write(self, path: Path) -> None:
        """Dump every span as ``layer<TAB>start<TAB>end<TAB>parent`` lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("layer\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.layers[self.layer[i]]}\t{self.start[i]!r}"
                    f"\t{self.end[i]!r}\t{self.parent[i]}\n"
                )
