"""Differential property test of the indexed DRAM pick.

``DramController._pick`` finds the oldest eligible request at the front
of the age-ordered queue and the oldest row hit among the open-row
bucket heads.  The oracle below is the plain rule it replaces: filter
the whole queue, then take minima by ``(arrival, txn_id)``.  Both
controllers receive the same randomized enqueue program; the service
order and the bypass count must match exactly.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.axi.txn import Transaction
from repro.dram.address_map import AddressMap
from repro.dram.controller import DramConfig, DramController
from repro.dram.timing import DramTiming
from repro.sim.kernel import Phase, Simulator

NUM_BANKS = 4
ROW_BYTES = 1024


class _Upstream:
    def on_mem_complete(self, txn):
        pass


class RecordingController(DramController):
    """The shipped controller, logging every service decision."""

    def __init__(self, sim, config):
        super().__init__(sim, config)
        self.served = []
        self.set_upstream(_Upstream())

    def _service(self, entry, now):
        self.served.append((now, entry.txn.txn_id))
        super()._service(entry, now)


class OracleController(RecordingController):
    """The same controller with the brute-force scan as its pick."""

    def _pick(self):
        candidates = list(self._queue)
        random.Random(len(self.served)).shuffle(candidates)  # order-free
        config = self.config
        if config.read_priority:
            reads = [e for e in candidates if not e.posted]
            if reads and self._buffered_writes < config.write_drain_watermark:
                candidates = reads
        if config.scheduler == "frfcfs_qos":
            top_qos = max(e.txn.qos for e in candidates)
            candidates = [e for e in candidates if e.txn.qos == top_qos]
        oldest = min(candidates, key=lambda e: (e.arrival, e.txn.txn_id))
        if config.scheduler == "fcfs":
            return oldest
        hits = [
            e for e in candidates
            if self.banks[e.bank].classify(e.row) == "hit"
        ]
        if not hits:
            return oldest
        best_hit = min(hits, key=lambda e: (e.arrival, e.txn.txn_id))
        if best_hit is oldest or oldest.bypasses >= config.frfcfs_cap:
            return oldest
        oldest.bypasses += 1
        self.stats.counter("frfcfs_bypasses").add()
        return best_hit


def _address(bank, row, column):
    # row:bank:column layout of AddressMap's default interleave.
    return (row * NUM_BANKS + bank) * ROW_BYTES + column * 64


def _run(controller_cls, config, program):
    """Replay ``program`` into a fresh controller; return it when done.

    ``program`` is a list of ``(gap, requests)``: after ``gap`` cycles,
    ``requests`` arrive in the same cycle.  Transactions are created in
    list order but enqueued in reverse for every other cycle, so
    same-cycle arrivals reach the queue with out-of-order ids.
    """
    Transaction.reset_ids()
    sim = Simulator()
    ctrl = controller_cls(sim, config)
    now = 0
    for step, (gap, requests) in enumerate(program):
        now += gap
        txns = []
        for bank, row, column, is_write, qos, beats in requests:
            txn = Transaction(
                master="m", is_write=is_write,
                addr=_address(bank, row, column), burst_len=beats,
                qos=qos, created=now,
            )
            txn.mark_issued(now)
            txn.mark_accepted(now)
            txns.append(txn)
        if step % 2:
            txns.reverse()
        for txn in txns:
            sim.schedule_at(
                now, lambda t=txn: ctrl.enqueue(t), priority=Phase.MEMORY
            )
    sim.run()
    return ctrl


_request = st.tuples(
    st.integers(0, NUM_BANKS - 1),   # bank
    st.integers(0, 2),               # row: several rows per bank
    st.integers(0, 15),              # column
    st.booleans(),                   # is_write
    st.integers(0, 3),               # qos
    st.sampled_from([1, 4, 16]),     # beats
)
_program = st.lists(
    st.tuples(st.integers(0, 40), st.lists(_request, min_size=1, max_size=5)),
    min_size=1,
    max_size=25,
)
_configs = st.one_of(
    st.builds(
        lambda scheduler, cap, refresh, policy: dict(
            scheduler=scheduler, frfcfs_cap=cap, refresh_enabled=refresh,
            row_policy=policy,
        ),
        st.sampled_from(["fcfs", "frfcfs", "frfcfs_qos"]),
        st.integers(0, 4),
        st.booleans(),
        st.sampled_from(["open", "open", "closed"]),
    ),
    st.builds(
        lambda scheduler, cap, depth, watermark: dict(
            scheduler=scheduler, frfcfs_cap=cap, posted_writes=True,
            read_priority=True, write_buffer_depth=depth,
            write_drain_watermark=min(watermark, depth),
        ),
        st.sampled_from(["fcfs", "frfcfs", "frfcfs_qos"]),
        st.integers(0, 4),
        st.integers(1, 6),
        st.integers(1, 6),
    ),
)


class TestPickMatchesScan:
    @given(config=_configs, program=_program)
    @settings(max_examples=150, deadline=None)
    def test_service_order_and_bypasses(self, config, program):
        dram_config = DramConfig(
            # Short refresh interval: rows close often mid-program.
            timing=DramTiming(t_refi=300, t_rfc=40),
            address_map=AddressMap(num_banks=NUM_BANKS, row_bytes=ROW_BYTES),
            **config,
        )
        fast = _run(RecordingController, dram_config, program)
        oracle = _run(OracleController, dram_config, program)
        assert fast.served == oracle.served
        assert len(fast.served) == sum(len(reqs) for _gap, reqs in program)
        assert (
            fast.stats.counter("frfcfs_bypasses").value
            == oracle.stats.counter("frfcfs_bypasses").value
        )
        assert not fast._queue and not any(fast._rows)

    def test_same_cycle_ties_served_by_id(self):
        # Three same-row requests arrive in one cycle, highest id first.
        program = [(0, [(0, 0, c, False, 0, 1) for c in range(3)]),
                   (0, [(1, 0, c, False, 0, 1) for c in range(3)])]
        config = DramConfig(
            scheduler="fcfs", refresh_enabled=False,
            address_map=AddressMap(num_banks=NUM_BANKS, row_bytes=ROW_BYTES),
        )
        ctrl = _run(RecordingController, config, program)
        ids = [txn_id for _now, txn_id in ctrl.served]
        assert ids == sorted(ids)

    def test_bypasses_counted_under_contention(self):
        # Alternating rows on bank 0 behind a stream of bank-1 hits:
        # the scan and the index must agree on a non-zero bypass count.
        program = [(1, [(1, 0, c % 16, False, 0, 4), (0, c % 3, 0, False, 0, 4)])
                   for c in range(20)]
        config = DramConfig(
            frfcfs_cap=2, refresh_enabled=False,
            address_map=AddressMap(num_banks=NUM_BANKS, row_bytes=ROW_BYTES),
        )
        fast = _run(RecordingController, config, program)
        oracle = _run(OracleController, config, program)
        bypasses = fast.stats.counter("frfcfs_bypasses").value
        assert bypasses > 0
        assert bypasses == oracle.stats.counter("frfcfs_bypasses").value
        assert fast.served == oracle.served
