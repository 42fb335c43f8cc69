"""Ready-port arbitration is exact.

The interconnect polls only *ready* ports (something queued and an
outstanding slot free) and re-arbitrates after an accept only while a
port is ready.  These tests check that skipping cannot change what the
regulators see: a skipped port is never asked ``may_issue``, and every
figure of a run -- per-transaction timestamps, regulator denials,
throttle time, arbiter choices -- matches a reference interconnect that
polls every port on every pass and always re-arbitrates after an
accept.
"""

from hypothesis import given, settings, strategies as st

from repro.axi.interconnect import Interconnect, InterconnectConfig
from repro.axi.port import MasterPort, PortConfig
from repro.axi.txn import Transaction
from repro.dram.controller import DramConfig, DramController
from repro.dram.timing import DramTiming
from repro.regulation.tightly_coupled import (
    TightlyCoupledConfig,
    TightlyCoupledRegulator,
)
from repro.sim.kernel import Phase, Simulator


class PollingInterconnect(Interconnect):
    """Reference arbitration: every port polled, always re-kicked."""

    def _arbitrate(self):
        self._arb_scheduled_at = None
        self._tm_passes.inc()
        now = self.sim.now
        progressed = False
        for direction, free_at in self._next_free.items():
            if now >= free_at and self._arbitrate_channel(direction, now):
                progressed = True
        if progressed:
            self.kick()

    def _arbitrate_channel(self, direction, now):
        candidates = []
        for index, port in enumerate(self.ports):
            txn = port.head(want_write=direction)
            if txn is not None:
                candidates.append((index, txn))
        if not candidates:
            return False
        winner = self.arbiter.select(candidates)
        chosen = dict(candidates)[winner]
        txn = self.ports[winner].accept_head(want_write=chosen.is_write)
        self._next_free[direction] = now + self.config.addr_cycles
        memory = self._memory
        self.sim.schedule(
            self.config.fwd_latency,
            lambda t=txn: memory.enqueue(t),
            priority=Phase.MEMORY,
        )
        return True


class SpyRegulator(TightlyCoupledRegulator):
    """Logs the port state behind every admission check."""

    def __init__(self, sim, config):
        super().__init__(sim, config)
        self.polls = []

    def may_issue(self, txn, now):
        port = self.port
        self.polls.append((now, port.queue_depth, port.outstanding))
        return super().may_issue(txn, now)


class Rig:
    """Hand-wired ports -> interconnect -> DRAM with scripted traffic."""

    def __init__(self, interconnect_cls, arbiter, split, ports):
        Transaction.reset_ids()
        self.sim = Simulator()
        self.dram = DramController(
            self.sim, DramConfig(timing=DramTiming(), refresh_enabled=False)
        )
        self.ic = interconnect_cls(
            self.sim,
            InterconnectConfig(arbiter=arbiter, split_addr_channels=split),
        )
        self.ic.attach_memory(self.dram)
        self.passes = []
        arbitrate = self.ic._arbitrate

        def traced_pass():
            self.passes.append(any(p.ready for p in self.ic.ports))
            arbitrate()

        self.ic._arbitrate = traced_pass
        self.txns = []
        self.ports = []
        for index, (limit, qos, budget) in enumerate(ports):
            regulator = None
            if budget:
                regulator = SpyRegulator(
                    self.sim,
                    TightlyCoupledConfig(window_cycles=64, budget_bytes=budget),
                )
            port = MasterPort(
                self.sim,
                PortConfig(
                    name=f"m{index}", max_outstanding=limit, qos=qos,
                    split_channels=split,
                ),
                regulator=regulator,
            )
            self.ic.attach_port(port)
            self.ports.append(port)

    def submit_at(self, cycle, index, is_write, addr, beats):
        port = self.ports[index]

        def submit():
            txn = Transaction(
                master=port.name, is_write=is_write, addr=addr,
                burst_len=beats, created=self.sim.now,
            )
            self.txns.append(txn)
            port.submit(txn)

        self.sim.schedule_at(cycle, submit, priority=Phase.MASTER)

    def run(self):
        self.sim.run()
        return self

    def figures(self):
        """Everything a run determines: per transaction, then per port."""
        out = [(t.accepted, t.mem_start, t.completed) for t in self.txns]
        for port in self.ports:
            stats = port.stats
            out.append((
                stats.counter("completed").value,
                stats.counter("regulator_denials").value,
                port.throttle_cycles,
                stats.sampler("latency").total,
                stats.sampler("queueing_delay").total,
                None if port.regulator is None else len(port.regulator.polls),
            ))
        return out


_port = st.tuples(
    st.integers(1, 4),                       # max_outstanding
    st.integers(0, 3),                       # qos
    st.sampled_from([0, 0, 64, 128, 512]),   # TC budget (0 = unregulated)
)
_submission = st.tuples(
    st.integers(0, 600),                     # cycle
    st.integers(0, 5),                       # port (mod count)
    st.booleans(),                           # is_write
    st.integers(0, 63),                      # address slot
    st.sampled_from([1, 4, 16]),             # beats
)


def _replay(cls, arbiter, split, ports, submissions):
    rig = Rig(cls, arbiter, split, ports)
    for cycle, index, is_write, slot, beats in submissions:
        rig.submit_at(cycle, index % len(ports), is_write, slot * 4096, beats)
    return rig.run()


class TestReadyPortArbitration:
    @given(
        arbiter=st.sampled_from(["round_robin", "fixed_priority", "qos"]),
        split=st.booleans(),
        ports=st.lists(_port, min_size=1, max_size=5),
        submissions=st.lists(_submission, min_size=1, max_size=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_polling_reference(self, arbiter, split, ports, submissions):
        fast = _replay(Interconnect, arbiter, split, ports, submissions)
        reference = _replay(
            PollingInterconnect, arbiter, split, ports, submissions
        )
        assert fast.figures() == reference.figures()
        serviced = fast.dram.stats.counter("serviced").value
        assert serviced + sum(p.queue_depth for p in fast.ports) == len(
            submissions
        )

    @given(
        ports=st.lists(_port, min_size=1, max_size=5),
        submissions=st.lists(_submission, min_size=1, max_size=40),
        split=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_unready_ports_never_reach_the_regulator(
        self, ports, submissions, split
    ):
        rig = _replay(Interconnect, "round_robin", split, ports, submissions)
        for port, (limit, _qos, _budget) in zip(rig.ports, ports):
            if port.regulator is None:
                continue
            for _now, queued, outstanding in port.regulator.polls:
                assert queued > 0
                assert outstanding < limit

    def test_port_at_limit_is_skipped(self):
        # One regulated port with a deep backlog and a single slot:
        # while its burst is in flight it is not ready and never polled.
        rig = Rig(Interconnect, "round_robin", False, [(1, 0, 4096)])
        for i in range(6):
            rig.submit_at(0, 0, False, i * 256, 16)
        rig.run()
        polls = rig.ports[0].regulator.polls
        assert len(polls) == 6  # exactly one admission check per burst
        assert all(outstanding == 0 for _now, _q, outstanding in polls)

    def test_no_pass_without_a_ready_port(self):
        # Unregulated backlogs behind small outstanding limits: after
        # each accept the ports are often all at their limit.  The
        # reference fires a pass then anyway; the ready-port rule
        # waits for the completion that frees a slot.
        shape = [(1, 0, 0), (2, 0, 0), (1, 0, 0)]
        fast = Rig(Interconnect, "round_robin", False, shape)
        reference = Rig(PollingInterconnect, "round_robin", False, shape)
        for rig in (fast, reference):
            for i in range(8):
                for index in range(len(shape)):
                    rig.submit_at(0, index, False, (index << 20) + i * 256, 4)
            rig.run()
        assert fast.passes and all(fast.passes)
        assert not all(reference.passes)
        assert fast.figures() == reference.figures()
