"""Per-bank DRAM state.

A bank tracks which row (if any) its row buffer holds and when the
bank finishes its current command sequence.  The controller consults
:meth:`Bank.classify` to classify an access (hit / miss / conflict)
and :meth:`Bank.ready_at` for availability.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.timing import DramTiming


class Bank:
    """State of a single DRAM bank."""

    __slots__ = ("index", "open_row", "_ready_at", "hits", "misses", "conflicts")

    def __init__(self, index: int) -> None:
        self.index = index
        self.open_row: Optional[int] = None
        self._ready_at = 0
        self.hits = 0
        self.misses = 0
        self.conflicts = 0

    def ready_at(self) -> int:
        """First cycle the bank can start a new command sequence."""
        return self._ready_at

    def classify(self, row: int) -> str:
        """Classify an access to ``row``: ``hit``/``miss``/``conflict``."""
        if self.open_row is None:
            return "miss"
        if self.open_row == row:
            return "hit"
        return "conflict"

    def access_latency(self, row: int, timing: DramTiming) -> int:
        """Command cycles for an access to ``row`` in the current state."""
        return _latency(self.classify(row), timing)

    def perform_access(
        self,
        row: int,
        start: int,
        timing: DramTiming,
        kind: Optional[str] = None,
    ) -> int:
        """Commit an access: update row buffer, stats and busy time.

        Args:
            row: Target row.
            start: Cycle the command sequence begins (>= ready_at()).
            timing: Timing parameters.
            kind: ``classify(row)``, when the caller already has it.

        Returns:
            The cycle at which the *column data* becomes available
            (command portion finished); the data-bus transfer is
            accounted by the controller.
        """
        if kind is None:
            kind = self.classify(row)
        latency = _latency(kind, timing)
        if kind == "hit":
            self.hits += 1
        elif kind == "miss":
            self.misses += 1
        else:
            self.conflicts += 1
        self.open_row = row
        done = start + latency
        self._ready_at = done
        return done

    def auto_precharge(self, timing: DramTiming) -> None:
        """Close the row right after the current access (closed-page
        policy): the precharge serializes after the column access."""
        self.open_row = None
        self._ready_at += timing.t_rp

    def precharge_all(self, now: int, timing: DramTiming) -> None:
        """Close the row buffer (used around refresh)."""
        if self.open_row is not None:
            self.open_row = None
            self._ready_at = max(self._ready_at, now + timing.t_rp)

    def hold_until(self, cycle: int) -> None:
        """Keep the bank busy until at least ``cycle`` (refresh)."""
        self._ready_at = max(self._ready_at, cycle)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.conflicts

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


def _latency(kind: str, timing: DramTiming) -> int:
    """Command cycles of an access of class ``kind``."""
    if kind == "hit":
        return timing.hit_latency
    if kind == "miss":
        return timing.miss_latency
    return timing.conflict_latency
