"""System-level property tests over randomized configurations.

Hypothesis drives whole-platform builds with random actor mixes and
regulation schemes, then checks the invariants that must hold for
*any* configuration:

* byte conservation between ports and the DRAM controller;
* bit-exact determinism from (config, seed);
* every bounded master finishes (no scheme wedges anyone);
* regulated rates never exceed their configured budgets.
"""

from hypothesis import given, settings, strategies as st

from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import PlatformResult, run_experiment
from repro.soc.platform import MasterSpec, Platform, PlatformConfig

MB = 1 << 20

_WORKLOADS = ("stream_read", "stream_write", "memcpy", "fft_stride",
              "matmul_stream")
_SPECS = [
    None,
    RegulatorSpec(kind="noreg"),
    RegulatorSpec(kind="tightly_coupled", window_cycles=512,
                  budget_bytes=2048),
    RegulatorSpec(kind="tightly_coupled", window_cycles=256,
                  budget_bytes=1024, carryover_windows=2),
    RegulatorSpec(kind="tightly_coupled", window_cycles=256,
                  budget_bytes=512, work_conserving=True),
    RegulatorSpec(kind="memguard", period_cycles=25_000,
                  budget_bytes=50_000),
    RegulatorSpec(kind="tdma", window_cycles=512, tdma_slots=6),
    RegulatorSpec(kind="prem", prem_hold_cycles=1024),
]

config_strategy = st.builds(
    lambda mix, seed: _make_config(mix, seed),
    mix=st.lists(
        st.tuples(
            st.sampled_from(_WORKLOADS),
            st.sampled_from(range(len(_SPECS))),
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**16),
)


def _make_config(mix, seed):
    masters = [
        MasterSpec(
            name="cpu0", workload="latency_probe",
            region_base=0x1000_0000, region_extent=4 * MB,
            work=400, max_outstanding=4, critical=True,
        )
    ]
    base = 0x2000_0000
    for index, (workload, spec_index) in enumerate(mix):
        masters.append(
            MasterSpec(
                name=f"bg{index}", workload=workload,
                region_base=base, region_extent=4 * MB,
                work=32 * 1024,
                regulator=_SPECS[spec_index],
            )
        )
        base += 4 * MB
    return PlatformConfig(masters=tuple(masters), seed=seed)


HORIZON = 3_000_000


class TestRandomizedSystems:
    @given(config=config_strategy)
    @settings(max_examples=20, deadline=None)
    def test_conservation_and_progress(self, config):
        platform = Platform(config)
        elapsed = platform.run(HORIZON, stop_when_critical_done=False)
        result = PlatformResult(platform, elapsed)
        # Every bounded master finished: no regulation scheme wedges.
        for name, master in platform.masters.items():
            assert master.done, f"{name} did not finish"
        # Conservation: the DRAM serviced at least everything the
        # ports completed, within the in-flight allowance.
        port_bytes = sum(m.bytes_moved for m in result.masters.values())
        assert result.dram.bytes_moved >= port_bytes
        # All latencies positive and ordered.
        for m in result.masters.values():
            if m.completed:
                assert 0 < m.latency_p50 <= m.latency_p99 <= m.latency_max

    @given(config=config_strategy)
    @settings(max_examples=10, deadline=None)
    def test_bit_exact_determinism(self, config):
        a = run_experiment(config, max_cycles=HORIZON,
                           stop_when_critical_done=False)
        b = run_experiment(config, max_cycles=HORIZON,
                           stop_when_critical_done=False)
        for name in a.masters:
            ma, mb = a.master(name), b.master(name)
            assert ma.bytes_moved == mb.bytes_moved
            assert ma.latency_max == mb.latency_max
            assert ma.finished_at == mb.finished_at

    @given(
        budget=st.integers(512, 8_192),
        window=st.sampled_from([256, 512, 1024]),
        seed=st.integers(0, 100),
        # Open-loop arrivals pile up behind the regulator instead of
        # self-throttling like the closed-loop stream does.
        workload=st.sampled_from(["stream_read", "open_loop_stream"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_regulated_rate_never_exceeds_budget(
        self, budget, window, seed, workload
    ):
        spec = RegulatorSpec(
            kind="tightly_coupled", window_cycles=window, budget_bytes=budget
        )
        masters = (
            MasterSpec(
                name="hog", workload=workload,
                region_base=0x2000_0000, region_extent=4 * MB,
                regulator=spec,
            ),
        )
        config = PlatformConfig(masters=masters, seed=seed)
        horizon = 60 * window
        result = run_experiment(config, max_cycles=horizon,
                                stop_when_critical_done=False)
        configured = budget / window
        achieved = result.master("hog").bytes_moved / horizon
        # One burst of slack for in-flight completion accounting.
        assert achieved <= configured + 256 / window
