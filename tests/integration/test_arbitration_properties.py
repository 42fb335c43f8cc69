"""Property tests on arbitration fairness and service conservation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.axi.interconnect import InterconnectConfig
from repro.axi.txn import Transaction
from repro.sim.kernel import Simulator
from repro.dram.controller import DramConfig
from repro.dram.timing import DramTiming
from tests.conftest import MiniSystem


def build(num_ports, arbiter="round_robin", split=False):
    sim = Simulator()
    mini = MiniSystem(
        sim,
        dram_config=DramConfig(timing=DramTiming(), refresh_enabled=False),
        interconnect_config=InterconnectConfig(
            arbiter=arbiter, split_addr_channels=split
        ),
    )
    ports = [mini.add_port(f"m{i}") for i in range(num_ports)]
    return sim, mini, ports


class TestArbitrationProperties:
    @given(
        num_ports=st.integers(2, 6),
        txns_per_port=st.integers(5, 25),
        burst=st.sampled_from([1, 4, 16]),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_robin_equal_backlogs_equal_service(
        self, num_ports, txns_per_port, burst
    ):
        sim, mini, ports = build(num_ports)
        for index, port in enumerate(ports):
            for i in range(txns_per_port):
                port.submit(
                    Transaction(
                        master=port.name,
                        is_write=False,
                        addr=(index << 22) + i * 256,
                        burst_len=burst,
                    )
                )
        sim.run()
        counts = [p.stats.counter("completed").value for p in ports]
        # Everything completes; equal offered work -> equal service.
        assert counts == [txns_per_port] * num_ports
        # Conservation at the controller.
        assert (
            mini.dram.stats.counter("serviced").value
            == num_ports * txns_per_port
        )

    @given(
        arbiter=st.sampled_from(["round_robin", "fixed_priority", "qos"]),
        split=st.booleans(),
        num_ports=st.integers(2, 5),
        txns_per_port=st.integers(1, 15),
        limit=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_arbiter_serves_every_backlog(
        self, arbiter, split, num_ports, txns_per_port, limit
    ):
        sim, mini, _ = build(0, arbiter=arbiter, split=split)
        ports = [
            mini.add_port(f"m{i}", max_outstanding=limit)
            for i in range(num_ports)
        ]
        txns = []
        for index, port in enumerate(ports):
            for i in range(txns_per_port):
                txn = Transaction(
                    master=port.name,
                    is_write=(i + index) % 3 == 0,
                    addr=(index << 22) + i * 256,
                    burst_len=4,
                )
                port.submit(txn)
                txns.append(txn)
        sim.run()
        counts = [p.stats.counter("completed").value for p in ports]
        assert [c + p.queue_depth for c, p in zip(counts, ports)] == [
            txns_per_port
        ] * num_ports
        if split:
            # Split channels can strand a backlog (a known defect, see
            # test_split_channels_serve_every_backlog below).
            return
        assert counts == [txns_per_port] * num_ports
        assert not any(p.queue_depth or p.ready for p in ports)
        # One shared address channel, every port backlogged, and the
        # first completion lands after the first num_ports * k
        # acceptances: rotating arbiters visit the ports in turn, the
        # fixed-priority one drains each port to its limit in order.
        k = min(limit, txns_per_port)
        first = [t.master for t in sorted(txns, key=lambda t: t.accepted)]
        names = [p.name for p in ports]
        if arbiter == "fixed_priority":
            expected = [name for name in names for _ in range(k)]
        else:
            expected = names * k
        assert first[: num_ports * k] == expected

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a pass that runs while its channel is busy "
        "schedules no pass for when it frees (split channels: the "
        "re-kick lands on the idle free channel), so a backlog waits "
        "for an unrelated kick or forever",
    )
    def test_split_channels_serve_every_backlog(self):
        # The read channel accepts while the write channel is free but
        # has nothing eligible: the follow-up pass should come back for
        # the reads queued behind the busy read channel.
        sim, mini, _ = build(0, arbiter="fixed_priority", split=True)
        ports = [mini.add_port(f"m{i}", max_outstanding=2) for i in range(3)]
        for index, port in enumerate(ports):
            for i in range(2):
                port.submit(
                    Transaction(
                        master=port.name,
                        is_write=(i + index) % 3 == 0,
                        addr=(index << 22) + i * 256,
                        burst_len=4,
                    )
                )
        sim.run()
        assert [p.stats.counter("completed").value for p in ports] == [2, 2, 2]

    @given(
        num_ports=st.integers(2, 5),
        txns=st.integers(4, 20),
        split=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_direction_conservation(self, num_ports, txns, split):
        sim, mini, ports = build(num_ports, split=split)
        submitted_bytes = 0
        for index, port in enumerate(ports):
            for i in range(txns):
                txn = Transaction(
                    master=port.name,
                    is_write=(i % 2 == 1),
                    addr=(index << 22) + i * 256,
                    burst_len=4,
                )
                port.submit(txn)
                submitted_bytes += txn.nbytes
        sim.run()
        completed_bytes = sum(
            p.stats.counter("bytes").value for p in ports
        )
        assert completed_bytes == submitted_bytes
        assert mini.dram.stats.counter("bytes").value == submitted_bytes

    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_latency_timestamps_consistent(self, seed):
        sim, mini, ports = build(3)
        import random

        rng = random.Random(seed)
        txns = []
        for port in ports:
            for _ in range(10):
                txn = Transaction(
                    master=port.name,
                    is_write=rng.random() < 0.5,
                    addr=rng.randrange(0, 1 << 20, 64),
                    burst_len=rng.choice([1, 4, 16]),
                )
                port.submit(txn)
                txns.append(txn)
        sim.run()
        for txn in txns:
            assert (
                txn.created
                <= txn.issued
                <= txn.accepted
                <= txn.mem_start
                <= txn.completed
            )
