"""The DRAM memory controller.

Models the controller of the shared DDR channel as a two-stage
pipeline: bank command sequences (activate / precharge / column
access) overlap with the data-bus transfer of the previous request,
and the serialized data bus is the sustained-bandwidth bottleneck.

Scheduling policies:

* ``frfcfs`` (default) -- First-Ready FCFS: row-buffer hits are served
  before older non-hits, bounded by a starvation cap, as in
  commercial controllers.  Locality-rich streams (DMA hogs) extract
  more bandwidth per request, which is why unregulated accelerators
  hurt latency-sensitive CPU traffic so badly.
* ``fcfs`` -- strict arrival order; a pessimistic baseline used in
  sensitivity studies.

Refresh is modelled as a periodic all-bank event that closes row
buffers and blocks the data bus for ``t_rfc`` cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError, ProtocolError
from repro.sim.kernel import Phase, Simulator
from repro.sim.stats import StatSet
from repro.axi.txn import Transaction
from repro.dram.address_map import AddressMap
from repro.dram.bank import Bank
from repro.dram.timing import DramTiming
from repro.telemetry.registry import get_registry


@dataclass(frozen=True)
class DramConfig:
    """Static DRAM controller configuration.

    Attributes:
        timing: Device timing set (fabric cycles).
        address_map: Physical address decoding.
        scheduler: ``"frfcfs"``, ``"frfcfs_qos"`` or ``"fcfs"``.
            ``frfcfs_qos`` restricts each pick to the highest AXI QoS
            value present in the queue before applying the FR-FCFS
            rule, modelling DDR controllers that map AxQOS into
            scheduling priority.
        frfcfs_cap: Max number of row hits that may bypass the oldest
            queued request before it is force-served (starvation cap).
        refresh_enabled: Model periodic refresh.
        posted_writes: Writes complete at a write buffer (the
            controller acknowledges as soon as the data is accepted),
            as commercial controllers do; the drain to the device
            still occupies the data bus.  Read latency then excludes
            write-drain waiting only insofar as the scheduler can
            reorder -- see ``read_priority``.
        write_buffer_depth: Posted-write buffer entries; when full,
            writes are no longer posted (back-pressure).
        read_priority: Scheduler prefers reads over buffered writes
            until the write buffer reaches its high watermark
            (read-first with drain threshold, the standard policy).
        write_drain_watermark: Buffered writes that force draining.
        row_policy: ``"open"`` keeps rows open after an access
            (row-buffer locality pays off; conflicts cost extra) or
            ``"closed"`` auto-precharges after every access (every
            access is activate+CAS; predictable but locality-blind,
            the policy some real-time controllers choose).
    """

    timing: DramTiming = field(default_factory=DramTiming)
    address_map: AddressMap = field(default_factory=AddressMap)
    scheduler: str = "frfcfs"
    frfcfs_cap: int = 4
    refresh_enabled: bool = True
    posted_writes: bool = False
    write_buffer_depth: int = 16
    read_priority: bool = False
    write_drain_watermark: int = 12
    row_policy: str = "open"

    def __post_init__(self) -> None:
        if self.scheduler not in ("frfcfs", "frfcfs_qos", "fcfs"):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if self.frfcfs_cap < 0:
            raise ConfigError(f"frfcfs_cap must be >= 0, got {self.frfcfs_cap}")
        if self.write_buffer_depth < 1:
            raise ConfigError("write_buffer_depth must be >= 1")
        if not 1 <= self.write_drain_watermark <= self.write_buffer_depth:
            raise ConfigError(
                "write_drain_watermark must be in [1, write_buffer_depth]"
            )
        if self.read_priority and not self.posted_writes:
            raise ConfigError("read_priority requires posted_writes")
        if self.row_policy not in ("open", "closed"):
            raise ConfigError(f"unknown row policy {self.row_policy!r}")


class _QueueEntry:
    __slots__ = ("txn", "arrival", "bank", "row", "bypasses", "posted", "key")

    def __init__(
        self,
        txn: Transaction,
        arrival: int,
        bank: int,
        row: int,
        posted: bool = False,
    ) -> None:
        self.txn = txn
        self.arrival = arrival
        self.bank = bank
        self.row = row
        self.bypasses = 0
        #: Posted write: already acknowledged upstream; this entry is
        #: only the drain of the buffered data to the device.
        self.posted = posted
        #: Age order: FCFS picks the smallest key.
        self.key = (arrival, txn.txn_id)


def _insort(entries: List[_QueueEntry], entry: _QueueEntry) -> None:
    """Insert ``entry`` into ``entries`` (ascending ``key``) from the right.

    New entries arrive at the current cycle, so this is an append
    unless same-cycle arrivals carry out-of-order transaction ids.
    """
    key = entry.key
    i = len(entries)
    while i and entries[i - 1].key > key:
        i -= 1
    entries.insert(i, entry)


def _first_eligible(
    entries: List[_QueueEntry], reads_only: bool, qos: Optional[int]
) -> Optional[_QueueEntry]:
    """The oldest entry of ``entries`` the current pick may choose."""
    for entry in entries:
        if reads_only and entry.posted:
            continue
        if qos is not None and entry.txn.qos != qos:
            continue
        return entry
    return None


class DramController:
    """FR-FCFS memory controller over a banked device."""

    def __init__(self, sim: Simulator, config: Optional[DramConfig] = None) -> None:
        self.sim = sim
        self.config = config or DramConfig()
        self.timing = self.config.timing
        self.address_map = self.config.address_map
        self.banks = [Bank(i) for i in range(self.address_map.num_banks)]
        self.stats = StatSet("dram")
        # The request queue in age order, and the same entries bucketed
        # per bank by row (each bucket in age order): a bank's open-row
        # bucket holds exactly its row hits, so the FR-FCFS pick looks
        # at one bucket head per bank instead of classifying the queue.
        self._queue: List[_QueueEntry] = []
        self._rows: List[Dict[int, List[_QueueEntry]]] = [
            {} for _ in self.banks
        ]
        # Queued entries per (posted, AXI QoS level): the read-priority
        # and QoS restrictions of a pick read these instead of scanning.
        self._queued_by_qos: Tuple[List[int], List[int]] = ([0] * 16, [0] * 16)
        # Non-posted transactions in service, in completion order (the
        # data bus serializes them, so completions are FIFO).
        self._completing: Deque[Transaction] = deque()
        self._upstream = None
        self._bus_free_at = 0
        # First cycle the scheduler may pick the next request.  Set to
        # the *start* of the previous data transfer so the next bank
        # command sequence overlaps it (two-stage pipeline); streaming
        # row hits then sustain the full data-bus rate.
        self._pick_free_at = 0
        self._last_was_write: Optional[bool] = None
        self._busy_cycles = 0
        self._buffered_writes = 0
        self._sched_scheduled_at: Optional[int] = None
        # Process-wide telemetry handles (null no-ops when disabled),
        # resolved once per controller; _service updates the matching
        # kind counter through this dict without a registry lookup.
        registry = get_registry()
        self._tm_row = {
            kind: registry.counter("dram_row_access", kind=kind)
            for kind in ("hit", "miss", "conflict")
        }
        self._tm_serviced = registry.counter("dram_serviced")
        self._tm_bytes = registry.counter("dram_bytes")
        self._tm_refreshes = registry.counter("dram_refreshes")
        self._tm_turnarounds = registry.counter("dram_turnarounds")
        self._tm_queue_depth = registry.histogram("dram_queue_depth")
        # StatSet handles, resolved once: the request path updates them
        # without a by-name lookup (summaries still read them by name).
        stats = self.stats
        self._stat_enqueued = stats.counter("enqueued")
        self._stat_queue_depth = stats.sampler("queue_depth")
        self._stat_posted = stats.counter("posted_writes")
        self._stat_row = {
            kind: stats.counter(f"row_{kind}")
            for kind in ("hit", "miss", "conflict")
        }
        self._stat_turnarounds = stats.counter("turnarounds")
        self._stat_serviced = stats.counter("serviced")
        self._stat_bytes = stats.counter("bytes")
        self._stat_service_time = stats.sampler("service_time")
        self._stat_refreshes = stats.counter("refreshes")
        self._stat_bypasses = stats.counter("frfcfs_bypasses")
        if self.config.refresh_enabled and self.timing.t_refi > 0:
            self.sim.schedule(
                self.timing.t_refi, self._refresh, priority=Phase.MEMORY,
                daemon=True,
            )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def set_upstream(self, upstream) -> None:
        """Connect the interconnect that receives completions."""
        if self._upstream is not None:
            raise ProtocolError("upstream attached twice")
        self._upstream = upstream

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    # repro: hot -- once per transaction
    def enqueue(self, txn: Transaction) -> None:
        """Accept a transaction from the interconnect."""
        bank, row = self.address_map.decode(txn.addr)
        posted = (
            self.config.posted_writes
            and txn.is_write
            and self._buffered_writes < self.config.write_buffer_depth
        )
        entry = _QueueEntry(txn, self.sim.now, bank, row, posted=posted)
        _insort(self._queue, entry)
        rows = self._rows[bank]
        bucket = rows.get(row)
        if bucket is None:
            rows[row] = [entry]
        else:
            _insort(bucket, entry)
        self._queued_by_qos[posted][txn.qos] += 1
        depth = len(self._queue)
        self._stat_enqueued.add()
        self._stat_queue_depth.record(depth)
        self._tm_queue_depth.observe(depth)
        if posted:
            # The write buffer acknowledges immediately; the drain to
            # the device stays queued.
            self._buffered_writes += 1
            self._stat_posted.add()
            txn.mark_mem_start(self.sim.now)
            upstream = self._upstream
            if upstream is None:
                raise ProtocolError("no upstream attached to DRAM controller")
            upstream.on_mem_complete(txn)
        self._kick()

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        at = max(self.sim.now, self._next_schedule_time())
        if self._sched_scheduled_at is not None and self._sched_scheduled_at <= at:
            return
        self._sched_scheduled_at = at
        self.sim.schedule_at(at, self._schedule_pass, priority=Phase.MEMORY)

    def _next_schedule_time(self) -> int:
        # The pipeline admits a new request as soon as the previous
        # one has started its data transfer (two-stage overlap).
        return self._pick_free_at

    # repro: hot -- once per serviced request
    def _schedule_pass(self) -> None:
        self._sched_scheduled_at = None
        if not self._queue:
            return
        now = self.sim.now
        if now < self._pick_free_at:
            self._kick()
            return
        entry = self._pick()
        self._remove(entry)
        self._service(entry, now)
        if self._queue:
            self._kick()

    # repro: hot -- once per serviced request
    def _pick(self) -> _QueueEntry:
        """Select the next request according to the configured policy.

        Every policy is "the first eligible entry": of the queue for
        the oldest request, of each bank's open-row bucket for the
        oldest row hit.  Eligibility restricts to reads while
        read-priority holds buffered writes back, and to the highest
        AXI QoS level present under ``frfcfs_qos``.
        """
        config = self.config
        queue = self._queue
        # Read-first with drain threshold: hold buffered writes back
        # while reads are pending, until the buffer fills to its
        # watermark.
        reads, posted = self._queued_by_qos
        reads_only = (
            config.read_priority
            and sum(posted) < len(queue)
            and self._buffered_writes < config.write_drain_watermark
        )
        qos = None
        if config.scheduler == "frfcfs_qos":
            qos = 15
            while not (reads[qos] or (not reads_only and posted[qos])):
                qos -= 1
        oldest = _first_eligible(queue, reads_only, qos)
        assert oldest is not None
        if config.scheduler == "fcfs":
            return oldest
        # FR-FCFS with starvation cap.
        best_hit = None
        rows = self._rows
        for bank in self.banks:
            open_row = bank.open_row
            if open_row is None:
                continue
            bucket = rows[bank.index].get(open_row)
            if bucket is None:
                continue
            hit = _first_eligible(bucket, reads_only, qos)
            if hit is not None and (best_hit is None or hit.key < best_hit.key):
                best_hit = hit
        if best_hit is None or best_hit is oldest:
            return oldest
        if oldest.bypasses >= config.frfcfs_cap:
            return oldest
        oldest.bypasses += 1
        self._stat_bypasses.add()
        return best_hit

    def _remove(self, entry: _QueueEntry) -> None:
        """Take a picked entry out of the queue and its row bucket."""
        self._queue.remove(entry)
        rows = self._rows[entry.bank]
        bucket = rows[entry.row]
        bucket.remove(entry)
        if not bucket:
            del rows[entry.row]
        self._queued_by_qos[entry.posted][entry.txn.qos] -= 1

    def _service(self, entry: _QueueEntry, now: int) -> None:
        txn = entry.txn
        bank = self.banks[entry.bank]
        kind = bank.classify(entry.row)
        self._stat_row[kind].add()
        self._tm_row[kind].inc()

        cmd_start = max(now, bank.ready_at())
        data_ready = bank.perform_access(
            entry.row, cmd_start, self.timing, kind=kind
        )
        if self.config.row_policy == "closed":
            bank.auto_precharge(self.timing)

        bus_start = max(data_ready, self._bus_free_at)
        if self._last_was_write is not None and self._last_was_write != txn.is_write:
            bus_start += self.timing.rw_turnaround
            self._stat_turnarounds.add()
            self._tm_turnarounds.inc()
        data_cycles = self.timing.data_cycles(txn.burst_len)
        bus_end = bus_start + data_cycles

        self._bus_free_at = bus_end
        self._pick_free_at = bus_start
        self._last_was_write = txn.is_write
        self._busy_cycles += data_cycles
        self._stat_serviced.add()
        self._stat_bytes.add(txn.nbytes)
        self._tm_serviced.inc()
        self._tm_bytes.inc(txn.nbytes)
        self._stat_service_time.record(bus_end - entry.arrival)

        if entry.posted:
            # Drain of an already-acknowledged write: free the buffer
            # slot when the data leaves the bus; no upstream
            # completion (it was sent at enqueue).
            self.sim.schedule_at(
                bus_end, self._drain_done, priority=Phase.MEMORY
            )
            return
        txn.mark_mem_start(cmd_start)
        if self._upstream is None:
            raise ProtocolError("no upstream attached to DRAM controller")
        self._completing.append(txn)
        self.sim.schedule_at(bus_end, self._complete, priority=Phase.MEMORY)

    def _complete(self) -> None:
        """The oldest in-service transaction left the data bus."""
        upstream = self._upstream
        assert upstream is not None  # checked when service started
        upstream.on_mem_complete(self._completing.popleft())

    def _drain_done(self) -> None:
        self._buffered_writes -= 1

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        now = self.sim.now
        # All-bank refresh closes every row and blocks the device for
        # t_rfc.
        refresh_end = max(self._bus_free_at, now) + self.timing.t_rfc
        for bank in self.banks:
            bank.precharge_all(now, self.timing)
            bank.hold_until(refresh_end)
        self._bus_free_at = refresh_end
        self._pick_free_at = max(self._pick_free_at, refresh_end)
        self._stat_refreshes.add()
        self._tm_refreshes.inc()
        self.sim.schedule(
            self.timing.t_refi, self._refresh, priority=Phase.MEMORY, daemon=True
        )
        if self._queue:
            self._kick()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def busy_cycles(self) -> int:
        """Data-bus cycles spent transferring payload."""
        return self._busy_cycles

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` cycles the data bus moved payload."""
        if elapsed <= 0:
            raise ConfigError(f"elapsed must be positive, got {elapsed}")
        return self._busy_cycles / elapsed

    def row_hit_rate(self) -> float:
        """Aggregate row-buffer hit rate across banks."""
        total = sum(b.accesses for b in self.banks)
        if not total:
            return 0.0
        return sum(b.hits for b in self.banks) / total
