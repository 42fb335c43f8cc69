"""Monitored passthrough (no regulation).

The "unregulated" configuration of every experiment: all traffic is
admitted immediately, but the monitor half still counts it so the
interference characterization (E1) can report per-master bandwidth.
"""

from __future__ import annotations

from typing import Optional

from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.monitor.window import WindowedBandwidthMonitor
from repro.regulation.base import BandwidthRegulator


class NoRegulation(BandwidthRegulator):
    """Admit everything; observe only.

    Args:
        monitor_window: Optional window width for the bandwidth
            monitor attached on bind (None = no windowed monitor).
    """

    def __init__(self, monitor_window: Optional[int] = None) -> None:
        super().__init__()
        self._monitor_window = monitor_window
        self.monitor: Optional[WindowedBandwidthMonitor] = None

    def _on_bind(self, port: MasterPort) -> None:
        if self._monitor_window:
            self.monitor = WindowedBandwidthMonitor(port, self._monitor_window)

    def may_issue(self, txn: Transaction, now: int) -> bool:
        return True

    def next_opportunity(self, txn: Transaction, now: int) -> int:
        # Never consulted (may_issue never denies); return now for
        # interface completeness.
        return now
