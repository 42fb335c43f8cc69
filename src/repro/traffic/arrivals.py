"""Open-loop traffic with stochastic arrivals.

Closed-loop masters (cores, DMA pipelines) self-throttle when the
memory system backs up.  Interrupt-driven and sensor traffic does
not: requests arrive on an external clock whatever the congestion,
and if the system cannot keep up, queues grow.  An
:class:`OpenLoopMaster` models that with Poisson (exponential
inter-arrival) or periodic-with-jitter processes.

Sweeping the offered load of an open-loop victim against regulated
background traffic yields the classic queueing curve (latency vs
load) that experiment E18 reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigError
from repro.sim.kernel import Phase, Simulator
from repro.sim.rng import Rng
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.traffic.master import Master
from repro.traffic.patterns import AddressPattern

try:  # numpy accelerates block precompute; exact scalar fallback below.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

#: Arrivals precomputed per block.  Large enough to amortize the
#: vector/batch setup, small enough that endless processes bounded by
#: ``run(until=...)`` never pre-draw far past the horizon.
_ARRIVAL_BLOCK = 256


@dataclass
class OpenLoopConfig:
    """Parameters of an open-loop arrival process.

    Attributes:
        pattern: Address stream.
        arrival: ``"poisson"`` (exponential gaps) or ``"periodic"``
            (fixed period plus uniform jitter).
        mean_gap_cycles: Mean inter-arrival time.
        jitter_cycles: Uniform +/- jitter for ``periodic`` arrivals.
        burst_len: Beats per request.
        bytes_per_beat: Beat width.
        write_ratio: Fraction of writes (deterministic mixing).
        num_requests: Stop after this many arrivals (None = endless).
        rng: Deterministic generator (required for ``poisson`` or a
            non-zero jitter).
    """

    pattern: AddressPattern = field(default=None)  # type: ignore[assignment]
    arrival: str = "poisson"
    mean_gap_cycles: float = 200.0
    jitter_cycles: int = 0
    burst_len: int = 4
    bytes_per_beat: int = 16
    write_ratio: float = 0.0
    num_requests: Optional[int] = None
    rng: Optional[Rng] = None

    def __post_init__(self) -> None:
        if self.pattern is None:
            raise ConfigError("OpenLoopConfig requires an address pattern")
        if self.arrival not in ("poisson", "periodic"):
            raise ConfigError(f"unknown arrival process {self.arrival!r}")
        if self.mean_gap_cycles <= 0:
            raise ConfigError("mean_gap_cycles must be positive")
        if self.jitter_cycles < 0:
            raise ConfigError("jitter_cycles must be >= 0")
        if self.jitter_cycles >= self.mean_gap_cycles:
            raise ConfigError("jitter must be smaller than the mean gap")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigError("write_ratio must be in [0, 1]")
        if self.num_requests is not None and self.num_requests < 1:
            raise ConfigError("num_requests must be >= 1 or None")
        needs_rng = self.arrival == "poisson" or self.jitter_cycles > 0
        if needs_rng and self.rng is None:
            raise ConfigError(
                "stochastic arrivals need a seeded rng "
                "(see repro.sim.rng.component_rng)"
            )

    def offered_load_bytes_per_cycle(self) -> float:
        """The long-run rate the process *tries* to inject."""
        return self.burst_len * self.bytes_per_beat / self.mean_gap_cycles


class OpenLoopMaster(Master):
    """Issues requests on an external arrival clock (open loop).

    Arrivals are never withheld: if the port/regulator back-pressures,
    requests pile up in the port queue and their measured latency
    includes the queueing -- exactly what happens to interrupt-driven
    traffic on a congested SoC.

    Arrival times, addresses and read/write flags are precomputed in
    blocks of :data:`_ARRIVAL_BLOCK` (gaps drawn sequentially from the
    configured RNG so the stream order is exactly that of per-request
    draws, absolute times by cumulative sum, addresses through
    :meth:`AddressPattern.next_addr_block`); the per-arrival event
    callback then only indexes the precomputed vectors and schedules
    the next arrival at its already-known absolute cycle.
    """

    def __init__(
        self, sim: Simulator, port: MasterPort, config: OpenLoopConfig
    ) -> None:
        super().__init__(sim, port)
        self.config = config
        self._arrived = 0
        self._completed = 0
        self._write_accumulator = 0.0
        self._planned = 0  # arrivals with gaps already drawn
        self._block_base = 0  # absolute time of the last planned arrival
        self._times: List[int] = []
        self._addrs: List[int] = []
        self._writes: List[bool] = []
        self._pos = 0

    # ------------------------------------------------------------------
    # Master interface
    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._block_base = self.sim.now
        if self._refill():
            self.sim.schedule_at(self._times[0], self._arrive, priority=Phase.MASTER)

    def _on_response(self, txn: Transaction) -> None:
        self._completed += 1
        limit = self.config.num_requests
        if limit is not None and self._completed >= limit:
            self._finish()

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------
    def _next_gap(self) -> int:
        cfg = self.config
        if cfg.arrival == "poisson":
            return max(1, round(cfg.rng.expovariate(1.0 / cfg.mean_gap_cycles)))
        gap = cfg.mean_gap_cycles
        if cfg.jitter_cycles:
            gap += cfg.rng.uniform(-cfg.jitter_cycles, cfg.jitter_cycles)
        return max(1, round(gap))

    def _refill(self) -> bool:
        """Precompute the next block of arrivals; False when none remain.

        Determinism contract: a block refill performs *exactly* the
        RNG calls the per-request implementation would, in the same
        order.  Gap draws are sequential (``random.Random`` streams
        cannot be vectorized); only the exact integer cumulative sum
        is offloaded to numpy.  The write-mix accumulator keeps the
        original float-by-float update sequence, so its rounding --
        and therefore every read/write decision -- is unchanged.  When
        the address pattern shares the arrival RNG, gap and address
        draws are interleaved per request, again matching the
        per-request order.
        """
        cfg = self.config
        limit = cfg.num_requests
        if limit is None:
            n = _ARRIVAL_BLOCK
        else:
            n = min(_ARRIVAL_BLOCK, limit - self._planned)
        if n <= 0:
            return False
        pattern = cfg.pattern
        if getattr(pattern, "rng", None) is cfg.rng and cfg.rng is not None:
            # Shared RNG: the per-request order is gap, address, gap,
            # address, ...; block-drawing either stream whole would
            # reorder the draws.
            times: List[int] = []
            addrs: List[int] = []
            t = self._block_base
            next_addr = pattern.next_addr
            for _ in range(n):
                t += self._next_gap()
                times.append(t)
                addrs.append(next_addr())
        else:
            gaps = [self._next_gap() for _ in range(n)]
            if _np is not None and n >= 32:
                times = (
                    _np.cumsum(_np.asarray(gaps, dtype=_np.int64))
                    + self._block_base
                ).tolist()
            else:
                times = []
                t = self._block_base
                for gap in gaps:
                    t += gap
                    times.append(t)
            addrs = pattern.next_addr_block(n)
        writes: List[bool] = []
        acc = self._write_accumulator
        ratio = cfg.write_ratio
        for _ in range(n):
            acc += ratio
            if acc >= 1.0:
                acc -= 1.0
                writes.append(True)
            else:
                writes.append(False)
        self._write_accumulator = acc
        self._times = times
        self._addrs = addrs
        self._writes = writes
        self._pos = 0
        self._planned += n
        self._block_base = times[-1]
        return True

    def _arrive(self) -> None:
        pos = self._pos
        self._arrived += 1
        self.issue(
            is_write=self._writes[pos],
            addr=self._addrs[pos],
            burst_len=self.config.burst_len,
            bytes_per_beat=self.config.bytes_per_beat,
        )
        pos += 1
        self._pos = pos
        if pos < len(self._times):
            self.sim.schedule_at(self._times[pos], self._arrive, priority=Phase.MASTER)
        elif self._refill():
            self.sim.schedule_at(self._times[0], self._arrive, priority=Phase.MASTER)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def arrived(self) -> int:
        return self._arrived

    @property
    def backlog(self) -> int:
        """Arrived-but-uncompleted requests (queue growth indicator)."""
        return self._arrived - self._completed
