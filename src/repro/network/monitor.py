"""WAN Monitor: periodic background measurement of inter-site links.

The WASP prototype adds "a network monitoring module (WAN Monitor) that
periodically monitors the pair-wise available [bandwidth] between sites in
the background" (Section 8.1).  The controller plans against these
*measurements*, never the ground truth - the measurement can be stale (it
refreshes only once per monitoring interval) and noisy (a configurable
relative error), which is exactly the mis-estimation the alpha headroom of
the placement ILP exists to absorb (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .topology import Topology


@dataclass(frozen=True)
class LinkMeasurement:
    """One measured sample of a directed link."""

    src: str
    dst: str
    bandwidth_mbps: float
    latency_ms: float
    measured_at_s: float


class WanMonitor:
    """Measures pairwise bandwidth/latency with optional noise and staleness.

    Args:
        topology: Ground-truth topology to observe.
        rng: Stream for measurement noise.
        relative_error: Multiplicative error bound; each measurement is the
            true value times a factor uniform in [1-e, 1+e].
    """

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        *,
        relative_error: float = 0.0,
    ) -> None:
        if relative_error < 0 or relative_error >= 1:
            raise ConfigurationError(
                f"relative_error must be in [0, 1), got {relative_error}"
            )
        self._topology = topology
        self._rng = rng
        self._relative_error = float(relative_error)
        #: The last snapshot (a refresh, plus later :meth:`remeasure` calls)
        #: as parallel lists; ``_row`` maps a ``(src, dst)`` key to a row.
        self._row: dict[tuple[str, str], int] = {}
        self._bandwidth: list[float] = []
        self._latency: list[float] = []
        self._measured_at: list[float] = []
        self._last_refresh_s = float("-inf")

    @property
    def last_refresh_s(self) -> float:
        return self._last_refresh_s

    def refresh(self, now_s: float) -> None:
        """Re-measure every defined link (one monitoring round).

        Noise is one draw per link in sorted link order, the same stream
        positions as drawing link by link.
        """
        table = self._topology.link_table()
        bandwidth = table.bandwidth_mbps
        if self._relative_error > 0:
            bandwidth = bandwidth * self._noise(len(table.keys))
        self._row = dict(table.index)
        self._bandwidth = bandwidth.tolist()
        self._latency = table.latency_ms.tolist()
        self._measured_at = [now_s] * len(table.keys)
        self._last_refresh_s = now_s

    def remeasure(self, src: str, dst: str, now_s: float) -> float:
        """Re-measure one directed link immediately (WANify-style re-gauging).

        The transactional executor calls this before retrying a failed
        migration: the stale monitoring-round sample may have promised
        bandwidth a mid-operation collapse took away, and planning the retry
        against a fresh sample is what makes the retry meaningful.  Returns
        the new measurement.
        """
        if src == dst:
            return self._topology.bandwidth_mbps(src, dst)
        noise = self._noise() if self._relative_error > 0 else 1.0
        bandwidth = self._topology.bandwidth_mbps(src, dst) * noise
        row = self._row.setdefault((src, dst), len(self._bandwidth))
        if row == len(self._bandwidth):  # not in the last refresh
            for column in (self._bandwidth, self._latency, self._measured_at):
                column.append(0.0)
        self._bandwidth[row] = bandwidth
        self._latency[row] = self._topology.latency_ms(src, dst)
        self._measured_at[row] = now_s
        return bandwidth

    def _noise(self, size: int | None = None) -> float | np.ndarray:
        """Multiplicative measurement noise, uniform in [1-e, 1+e]."""
        e = self._relative_error
        return self._rng.uniform(1.0 - e, 1.0 + e, size=size)

    def bandwidth_mbps(self, src: str, dst: str) -> float:
        """Most recent bandwidth measurement for ``src -> dst``.

        Intra-site transfers report the topology's local capacity directly.
        Falls back to a fresh ground-truth read if the link has never been
        measured (i.e. before the first monitoring round).
        """
        row = self._row.get((src, dst))
        if row is None:
            return self._topology.bandwidth_mbps(src, dst)
        return self._bandwidth[row]

    def latency_ms(self, src: str, dst: str) -> float:
        """Most recent latency measurement for ``src -> dst``."""
        row = self._row.get((src, dst))
        if row is None:
            return self._topology.latency_ms(src, dst)
        return self._latency[row]

    def measurement(self, src: str, dst: str) -> LinkMeasurement | None:
        row = self._row.get((src, dst))
        return None if row is None else LinkMeasurement(
            src, dst, self._bandwidth[row], self._latency[row], self._measured_at[row]
        )

    def bandwidth_matrix(self) -> dict[tuple[str, str], float]:
        """Measured bandwidth for every known link."""
        return dict(zip(self._row, self._bandwidth))
