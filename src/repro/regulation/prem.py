"""PREM-style mutually-exclusive memory arbitration.

The Predictable Execution Model (the authors' other research line:
HePREM, GPUguard, ...) removes memory interference entirely by
allowing only *one* actor at a time to access DRAM: tasks are split
into memory and compute phases and the memory phases are scheduled
mutually exclusively.  The guarantee is perfect isolation; the cost
is that every other actor's memory phase waits, and the DRAM idles
whenever the token holder has nothing to send -- the
under-utilization that CMRI and this paper's regulator attack.

The model here is the arbitration substrate of such a schedule:

* a :class:`PremController` owns a single *memory token*;
* each :class:`PremRegulator` admits its master's transactions only
  while holding the token;
* the token is requested on demand, held while the owner keeps the
  memory system busy (bounded by ``max_hold_cycles``), and granted
  round-robin among requesters.

An unregulated master (e.g. a critical CPU given implicit priority)
simply bypasses the scheme, which models "the critical task owns the
schedule and accelerators fill its gaps" -- the configuration used by
the E16 benchmark.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import RegulationError
from repro.sim.kernel import Phase, Simulator
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.regulation.base import BandwidthRegulator


class PremController:
    """The global memory-token arbiter.

    Args:
        sim: Simulation kernel.
        max_hold_cycles: Longest a holder may keep the token while
            others wait (a memory-phase length bound).
    """

    def __init__(self, sim: Simulator, max_hold_cycles: int = 2048) -> None:
        if max_hold_cycles < 1:
            raise RegulationError("max_hold_cycles must be >= 1")
        self.sim = sim
        self.max_hold_cycles = max_hold_cycles
        self._members: List["PremRegulator"] = []
        self._holder: Optional["PremRegulator"] = None
        self._held_since = 0
        self._rr_index = 0
        self.grants = 0
        #: When set, a callable returning True while a *protected*
        #: actor (the critical task's memory phase) is active: no
        #: regulated actor is admitted then -- this is PREM's defining
        #: mutual exclusion between the critical task and everyone
        #: else.  The platform wires it to the critical ports.
        self._protected_active = None

    def register(self, regulator: "PremRegulator") -> None:
        self._members.append(regulator)

    def set_protected_probe(self, probe) -> None:
        """Install the critical-actor activity probe (see above)."""
        self._protected_active = probe

    # ------------------------------------------------------------------
    # token management
    # ------------------------------------------------------------------
    @property
    def holder(self) -> Optional["PremRegulator"]:
        return self._holder

    def holds(self, regulator: "PremRegulator") -> bool:
        return self._holder is regulator

    def request(self, regulator: "PremRegulator", now: int) -> bool:
        """Try to acquire (or confirm) the token for ``regulator``.

        Returns True when the regulator holds the token afterwards.
        """
        if self._protected_active is not None and self._protected_active():
            # The critical task is in a memory phase: nobody else may
            # start an access (its in-flight bursts still drain).
            return False
        if self._holder is regulator:
            if now - self._held_since >= self.max_hold_cycles and self._waiters(
                regulator
            ):
                self._pass_token(now)
                return self._holder is regulator
            return True
        if self._holder is None:
            self._grant(regulator, now)
            return True
        # Token busy: preempt an expired or idle holder.
        holder_idle = not self._holder.wants_token()
        expired = now - self._held_since >= self.max_hold_cycles
        if holder_idle or expired:
            self._pass_token(now)
            return self._holder is regulator
        return False

    def release_if_idle(self, regulator: "PremRegulator", now: int) -> None:
        """Called when a holder's traffic drains; pass the token on."""
        if self._holder is regulator and not regulator.wants_token():
            self._pass_token(now)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _waiters(self, exclude: "PremRegulator") -> List["PremRegulator"]:
        return [
            m for m in self._members if m is not exclude and m.wants_token()
        ]

    def _grant(self, regulator: "PremRegulator", now: int) -> None:
        self._holder = regulator
        self._held_since = now
        self.grants += 1
        regulator.token_granted()

    def _pass_token(self, now: int) -> None:
        """Grant the token to the next round-robin requester."""
        count = len(self._members)
        for offset in range(1, count + 1):
            candidate = self._members[(self._rr_index + offset) % count]
            if candidate.wants_token():
                self._rr_index = (self._rr_index + offset) % count
                self._grant(candidate, now)
                return
        self._holder = None


class PremRegulator(BandwidthRegulator):
    """Admits traffic only while holding the controller's token."""

    def __init__(self, controller: PremController) -> None:
        super().__init__()
        self.controller = controller
        controller.register(self)

    # ------------------------------------------------------------------
    # controller interface
    # ------------------------------------------------------------------
    def wants_token(self) -> bool:
        """True while this master has queued or in-flight traffic."""
        port = self.port
        if port is None:
            return False
        return port.queue_depth > 0 or port.outstanding > 0

    def token_granted(self) -> None:
        self._release()

    # ------------------------------------------------------------------
    # admission interface
    # ------------------------------------------------------------------
    def may_issue(self, txn: Transaction, now: int) -> bool:
        return self.controller.request(self, now)

    def charge(self, txn: Transaction, now: int) -> None:
        super().charge(txn, now)

    def next_opportunity(self, txn: Transaction, now: int) -> int:
        # The token moves on completions/acquisitions, which all kick
        # arbitration; poll at a modest cadence as a fallback.
        return now + 64

    def _on_bind(self, port: MasterPort) -> None:
        # Pass the token on when our traffic drains.
        def on_beat(_nbytes: int, now: int) -> None:
            self.controller.release_if_idle(self, now)

        port.beat_observers.append(on_beat)
