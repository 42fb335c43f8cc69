"""TDMA (time-division) memory regulation.

The classic hard-real-time alternative to rate-based regulation
(T-CREST/PRET-style): the memory timeline is divided into a repeating
frame of fixed slots and each regulated master may only issue during
its own slot.  Guarantees are trivially composable (worst-case wait =
one frame), but the scheme is *non-work-conserving in time*: an idle
slot is lost even if its owner has nothing to send and others are
starving -- the under-utilization argument the rate-based approaches
(and this paper's IP) improve on.

A :class:`TdmaSchedule` is shared by all participating regulators of
one platform; each :class:`TdmaRegulator` holds one slot index.
Slots the platform leaves unassigned are simply idle time (headroom
for unregulated masters such as the host CPU).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RegulationError
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.monitor.window import WindowedBandwidthMonitor
from repro.regulation.base import BandwidthRegulator


class TdmaSchedule:
    """A repeating frame of equal slots.

    Args:
        slot_cycles: Width of one slot.
        num_slots: Slots per frame.
    """

    def __init__(self, slot_cycles: int, num_slots: int) -> None:
        if slot_cycles < 1:
            raise RegulationError(f"slot_cycles must be >= 1, got {slot_cycles}")
        if num_slots < 1:
            raise RegulationError(f"num_slots must be >= 1, got {num_slots}")
        self.slot_cycles = slot_cycles
        self.num_slots = num_slots

    @property
    def frame_cycles(self) -> int:
        return self.slot_cycles * self.num_slots

    def slot_at(self, now: int) -> int:
        """Index of the slot active at cycle ``now``."""
        return (now % self.frame_cycles) // self.slot_cycles

    def slot_start(self, slot_index: int, now: int) -> int:
        """First cycle >= ``now`` at which ``slot_index`` is active."""
        if not 0 <= slot_index < self.num_slots:
            raise RegulationError(
                f"slot {slot_index} outside frame of {self.num_slots}"
            )
        frame_base = (now // self.frame_cycles) * self.frame_cycles
        start = frame_base + slot_index * self.slot_cycles
        if start + self.slot_cycles <= now:
            # This frame's occurrence is already over; take the next.
            start += self.frame_cycles
        # Either the slot is active now (start <= now < start+slot) or
        # it lies in the future; in both cases the answer is below.
        return max(start, now)

    def in_slot(self, slot_index: int, now: int) -> bool:
        return self.slot_at(now) == slot_index

    def cycles_left_in_slot(self, now: int) -> int:
        """Cycles remaining in the currently active slot."""
        return self.slot_cycles - (now % self.slot_cycles)


class TdmaRegulator(BandwidthRegulator):
    """Admits traffic only during this master's TDMA slot.

    A burst is admitted when its *data transfer* fits in the rest of
    the slot (1 beat per cycle at the device), so no burst spills
    into a neighbour's slot -- the property that makes TDMA
    composable.

    Args:
        schedule: The shared frame.
        slot_index: This master's slot.
        monitor_window: Optional bandwidth-monitor window.
    """

    def __init__(
        self,
        schedule: TdmaSchedule,
        slot_index: int,
        monitor_window: int = 0,
    ) -> None:
        super().__init__()
        if not 0 <= slot_index < schedule.num_slots:
            raise RegulationError(
                f"slot_index {slot_index} outside frame of "
                f"{schedule.num_slots} slots"
            )
        self.schedule = schedule
        self.slot_index = slot_index
        self._monitor_window = monitor_window
        self.monitor = None

    def _on_bind(self, port: MasterPort) -> None:
        if self._monitor_window:
            self.monitor = WindowedBandwidthMonitor(port, self._monitor_window)

    def _fits_in_slot(self, txn: Transaction, now: int) -> bool:
        beats = txn.burst_len
        if beats > self.schedule.slot_cycles:
            # A burst longer than a whole slot can never fit; admit at
            # a slot start (forward progress, bounded one-burst spill).
            return now % self.schedule.slot_cycles == 0
        return beats <= self.schedule.cycles_left_in_slot(now)

    def may_issue(self, txn: Transaction, now: int) -> bool:
        return self.schedule.in_slot(self.slot_index, now) and self._fits_in_slot(
            txn, now
        )

    def next_opportunity(self, txn: Transaction, now: int) -> int:
        if self.schedule.in_slot(self.slot_index, now):
            # Blocked by the fit check: wait for the next occurrence
            # of this slot.
            return self.schedule.slot_start(
                self.slot_index, now + self.schedule.cycles_left_in_slot(now)
            )
        return self.schedule.slot_start(self.slot_index, now)

    @property
    def time_share(self) -> float:
        """Fraction of the frame owned by this master."""
        return 1.0 / self.schedule.num_slots
