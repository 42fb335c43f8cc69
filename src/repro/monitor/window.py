"""Windowed bandwidth monitoring.

The fine-grained view exported by the tightly-coupled IP: bytes moved
per fixed window.  Besides plain bandwidth traces this module provides
the *overshoot* analysis used in experiments E2/E3/E8: given a target
budget, how far above it did any window actually go?  Coarse or
loosely-coupled regulation shows large per-window overshoot even when
the long-run average looks correct -- the core quantitative argument
of the reproduced paper.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ConfigError
from repro.axi.port import MasterPort
from repro.sim.stats import TimeSeries


def overshoot_from_bins(
    window_bytes: Sequence[int], budget_bytes_per_window: float
) -> Dict[str, float]:
    """Overshoot statistics over pre-recorded per-window byte counts.

    The pure-data core of :meth:`WindowedBandwidthMonitor.overshoot_report`,
    usable on bins that crossed a process boundary (e.g.
    :attr:`repro.runner.summary.RunSummary.monitor_bins`).

    Args:
        window_bytes: Dense per-window byte counts.
        budget_bytes_per_window: Allowed bytes per window.

    Returns:
        Dict with ``max_overshoot_ratio``, ``violation_fraction`` and
        ``mean_ratio`` (all 0.0 when no windows were recorded).
    """
    if budget_bytes_per_window <= 0:
        raise ConfigError("budget must be positive")
    if not window_bytes:
        return {
            "max_overshoot_ratio": 0.0,
            "violation_fraction": 0.0,
            "mean_ratio": 0.0,
        }
    # Single pass, no materialized ratio list: bin arrays can span
    # hundreds of thousands of windows on long-horizon sweeps.  The
    # per-element float operations match the obvious list-based
    # formulation exactly, so reported values are bit-identical.
    count = 0
    total = 0.0
    max_ratio = 0.0
    violations = 0
    threshold = 1.0 + 1e-9
    for w in window_bytes:
        ratio = w / budget_bytes_per_window
        count += 1
        total += ratio
        if ratio > max_ratio:
            max_ratio = ratio
        if ratio > threshold:
            violations += 1
    return {
        "max_overshoot_ratio": max_ratio,
        "violation_fraction": violations / count,
        "mean_ratio": total / count,
    }


class WindowedBandwidthMonitor:
    """Per-window byte counts for one master port.

    Args:
        port: The observed port.
        window_cycles: Width of the observation window in cycles.
            Pick the *analysis* granularity here; it need not match
            any regulator's window.
    """

    def __init__(self, port: MasterPort, window_cycles: int) -> None:
        if window_cycles < 1:
            raise ConfigError(f"window_cycles must be >= 1, got {window_cycles}")
        self.port = port
        self.master = port.name
        self.window_cycles = window_cycles
        self._series = TimeSeries(f"{port.name}.window_bytes", window_cycles)
        port.beat_observers.append(self._observe)

    def _observe(self, nbytes: int, now: int) -> None:
        self._series.add(now, nbytes)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def window_bytes(self, horizon_cycles: int) -> List[int]:
        """Dense per-window byte counts covering ``[0, horizon)``."""
        if horizon_cycles < self.window_cycles:
            raise ConfigError("horizon shorter than one window")
        last_bin = horizon_cycles // self.window_cycles - 1
        return [int(v) for v in self._series.bins(0, last_bin)]

    def total_bytes(self) -> int:
        return int(self._series.total())

    def current_window_bytes(self) -> int:
        """Bytes in the most recently touched window (live view)."""
        return int(self._series.last_bin())

    def peak_window_bytes(self) -> int:
        return int(self._series.max_bin())

    def mean_bandwidth_bytes_per_cycle(self, horizon_cycles: int) -> float:
        if horizon_cycles <= 0:
            raise ConfigError("horizon must be positive")
        return self.total_bytes() / horizon_cycles

    # ------------------------------------------------------------------
    # overshoot analysis
    # ------------------------------------------------------------------
    def overshoot_report(
        self, budget_bytes_per_window: float, horizon_cycles: int
    ) -> Dict[str, float]:
        """Quantify violations of a per-window byte budget.

        Args:
            budget_bytes_per_window: Allowed bytes in each window of
                this monitor's width.
            horizon_cycles: Analysis horizon.

        Returns:
            Dict with:
                ``max_overshoot_ratio`` -- worst window's bytes divided
                by the budget (1.0 = never exceeded);
                ``violation_fraction`` -- fraction of windows above
                budget;
                ``mean_ratio`` -- average window bytes over budget.
        """
        return overshoot_from_bins(
            self.window_bytes(horizon_cycles), budget_bytes_per_window
        )
