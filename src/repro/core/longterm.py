"""Long-term dynamics: periodic background re-planning (Section 6.2).

Short-term dynamics are handled reactively by the Figure-6 policy.  But
some dynamics "usually follow a specific pattern and can be predicted"
(e.g. the daily workload shift of Section 2.2): for those, WASP
"periodically re-evaluat[es] the query plan in the background".

:class:`LongTermPlanner` implements that background loop: on its own (much
slower) cadence it forecasts the source rates a horizon ahead, asks the
re-planner whether a different plan would serve the *forecast* better than
the current one, and - only when the improvement clears the hysteresis -
executes the switch proactively, before the shift hits.

Forecasting itself is explicitly out of the paper's scope ("How to
accurately model/profile the dynamics itself is out of the scope of this
work"), so two simple forecasters are provided:

* :class:`OracleForecaster` - asks the workload model directly (exact for
  the synthetic diurnal trace; stands in for an offline profile);
* :class:`SeasonalNaiveForecaster` - predicts the rate observed one season
  ago, learning the pattern purely from the metric monitor's observations.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..engine.runtime import WorkloadModel
from ..errors import ConfigurationError
from .actions import ReplanAction
from .controller import AdaptationRecord, ReconfigurationManager


class Forecaster:
    """Protocol: predict per-source generation rates at a future time."""

    def observe(self, t_s: float, rates: dict[str, float]) -> None:
        """Feed an observation (optional for model-based forecasters)."""

    def forecast(self, t_s: float) -> dict[str, float]:  # pragma: no cover
        raise NotImplementedError


class OracleForecaster(Forecaster):
    """Reads the workload model directly (a perfect offline profile)."""

    def __init__(self, workload: WorkloadModel, source_names: list[str]):
        self._workload = workload
        self._sources = list(source_names)

    def forecast(self, t_s: float) -> dict[str, float]:
        return {
            name: self._workload.generation_eps(name, t_s)
            for name in self._sources
        }


class SeasonalNaiveForecaster(Forecaster):
    """Predicts the rate observed one season (period) earlier.

    The classic baseline for periodic signals: with a 24 h (or compressed)
    diurnal cycle, tomorrow-at-noon looks like today-at-noon.  Falls back
    to the most recent observation while less than one full season of
    history exists.
    """

    def __init__(self, season_s: float) -> None:
        if season_s <= 0:
            raise ConfigurationError(f"season_s must be > 0, got {season_s}")
        self._season_s = float(season_s)
        self._times: list[float] = []
        self._rates: list[dict[str, float]] = []

    def observe(self, t_s: float, rates: dict[str, float]) -> None:
        if self._times and t_s <= self._times[-1]:
            return
        self._times.append(t_s)
        self._rates.append(dict(rates))

    def forecast(self, t_s: float) -> dict[str, float]:
        if not self._times:
            return {}
        target = t_s - self._season_s
        if target < self._times[0]:
            return dict(self._rates[-1])  # no full season yet
        idx = bisect.bisect_right(self._times, target) - 1
        return dict(self._rates[max(0, idx)])


@dataclass(frozen=True)
class LongTermConfig:
    """Cadence of the background loop.

    Attributes:
        period_s: How often the background re-evaluation runs.  Much slower
            than the reactive monitor (Section 6.2's loop exists so the
            reactive path is not bothered with predictable shifts).
        horizon_s: How far ahead to forecast - long enough to cover the
            re-planning overhead, short enough to stay accurate.
    """

    period_s: float = 600.0
    horizon_s: float = 120.0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ConfigurationError("period_s must be > 0")
        if self.horizon_s < 0:
            raise ConfigurationError("horizon_s must be >= 0")


class LongTermPlanner:
    """Background plan re-evaluation against forecast workload."""

    def __init__(
        self,
        manager: ReconfigurationManager,
        forecaster: Forecaster,
        config: LongTermConfig | None = None,
    ) -> None:
        self.manager = manager
        self.forecaster = forecaster
        self.config = config or LongTermConfig()
        self.history: list[AdaptationRecord] = []

    def background_round(self, now_s: float) -> AdaptationRecord | None:
        """One background iteration: forecast, evaluate, maybe re-plan.

        Uses the same hysteresis as reactive re-planning, so near-equal
        plans never flip; a proactive switch only happens when the forecast
        clearly favours an alternative.
        """
        manager = self.manager
        if manager.replanner is None:
            return None
        forecast = self.forecaster.forecast(now_s + self.config.horizon_s)
        if not forecast:
            return None
        plan = manager.runtime.plan
        # Skip while any stage is mid-transition: the reactive loop owns it.
        if any(
            manager.runtime.is_suspended(s.name)
            for s in plan.topological_stages()
        ):
            return None
        slots = dict(manager.runtime.topology.available_slots())
        for stage in plan.topological_stages():
            for site, count in stage.placement().items():
                slots[site] = slots.get(site, 0) + count
        manager.wan_monitor.refresh(now_s)
        proposal = manager.replanner.propose(
            plan.logical,
            plan,
            manager.wan_monitor,
            slots,
            forecast,
        )
        if proposal is None:
            return None
        action = ReplanAction(
            proposal.estimate.logical.name,
            "long-term dynamics: proactive re-plan for forecast workload "
            f"(score {proposal.estimate.delay_score_ms:.1f}ms vs "
            f"{proposal.current_score_ms:.1f}ms)",
            proposal.estimate,
        )
        record = manager._execute(action, now_s)
        manager.history.append(record)
        self.history.append(record)
        if manager.recorder is not None:
            manager.recorder.record_adaptation(
                now_s, "re-plan (long-term)", record.reason
            )
        return record
