"""The regulator interface.

A regulator lives inline on a :class:`~repro.axi.port.MasterPort`.
The port consults it on every address handshake:

1. ``may_issue(txn, now)`` -- combinational admission decision;
2. ``charge(txn, now)`` -- called when the handshake is accepted;
3. ``next_opportunity(txn, now)`` -- when admission was denied, the
   first cycle at which retrying can succeed (lets the simulation
   stay event-driven instead of polling).

Regulators are also *monitors*: they observe the traffic they police
and export total and per-window counters.  Run-time reconfiguration goes through
``set_budget_bytes`` whose effect latency is regulator-specific (a
few bus cycles for the tightly-coupled IP, the next period boundary
for software MemGuard).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import RegulationError
from repro.axi.txn import Transaction
from repro.telemetry.registry import NULL_COUNTER, get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.axi.port import MasterPort


class BandwidthRegulator:
    """Abstract base of all regulators."""

    def __init__(self) -> None:
        self.port: Optional["MasterPort"] = None
        self.charged_bytes = 0
        self.charged_transactions = 0
        # Telemetry handles; label resolution needs the port name, so
        # the real handles are bound in bind_port.  Until then (and
        # whenever telemetry is off) they are shared no-ops.
        self._tm_grants = NULL_COUNTER
        self._tm_granted_bytes = NULL_COUNTER
        self._tm_window_resets = NULL_COUNTER

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    # repro: telemetry-bind -- one-time handle creation at wiring time
    def bind_port(self, port: "MasterPort") -> None:
        """Attach to the port this regulator polices."""
        if self.port is not None:
            raise RegulationError("regulator bound to two ports")
        self.port = port
        registry = get_registry()
        policy = type(self).__name__
        self._tm_grants = registry.counter(
            "regulator_grants", master=port.name, policy=policy
        )
        self._tm_granted_bytes = registry.counter(
            "regulator_granted_bytes", master=port.name, policy=policy
        )
        self._tm_window_resets = registry.counter(
            "regulator_window_resets", master=port.name, policy=policy
        )
        self._on_bind(port)

    def _on_bind(self, port: "MasterPort") -> None:
        """Subclass hook: subscribe observers, seed state."""

    # ------------------------------------------------------------------
    # the admission interface used by the port
    # ------------------------------------------------------------------
    def may_issue(self, txn: Transaction, now: int) -> bool:
        """Is this transaction's address phase admissible *now*?"""
        raise NotImplementedError

    def charge(self, txn: Transaction, now: int) -> None:
        """Account an accepted transaction.

        Subclasses must call ``super().charge(...)`` to keep the
        monitor totals consistent.
        """
        self.charged_bytes += txn.nbytes
        self.charged_transactions += 1
        self._tm_grants.inc()
        self._tm_granted_bytes.inc(txn.nbytes)

    def next_opportunity(self, txn: Transaction, now: int) -> int:
        """Earliest cycle a denied transaction could be admitted."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------
    def set_budget_bytes(self, budget_bytes: int, now: int) -> int:
        """Request a new per-window byte budget.

        Args:
            budget_bytes: New budget (meaning is regulator-specific).
            now: Current cycle.

        Returns:
            The cycle at which the new budget takes effect.

        Raises:
            RegulationError: if the regulator has no notion of budget.
        """
        raise RegulationError(f"{type(self).__name__} does not support budgets")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _release(self) -> None:
        """Tell the port that credit became available."""
        if self.port is not None:
            self.port.regulator_released()
