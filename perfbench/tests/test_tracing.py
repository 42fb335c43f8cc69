"""Self-time arithmetic of the layer tracer on synthetic span trees."""

from perfbench.tracing import OTHER, LayerTracer, module_layer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def in_module(module, fn):
    fn.__module__ = module
    return fn


def test_module_layer():
    assert module_layer("repro.dram.controller") == "dram"
    assert module_layer("repro.sim.stats") == "sim"
    assert module_layer("repro.monitor.window") == OTHER
    assert module_layer("repro") == OTHER
    assert module_layer("collections") == OTHER
    assert module_layer(None) == OTHER


def test_nested_cross_layer_spans_and_callbacks():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def dispatch(callback):
        # What the kernel's profiled loop does around each callback.
        start = tracer.clock()
        callback()
        tracer.observe(callback, tracer.clock() - start)

    telemetry = tracer.span(lambda: clock.advance(512), "telemetry", "tm")

    def axi_body():
        clock.advance(128)
        telemetry()
        clock.advance(256)

    axi = tracer.span(axi_body, "axi", "heads")
    dram = tracer.span(lambda: clock.advance(2048), "dram")

    def dram_callback():
        clock.advance(32)
        axi()
        clock.advance(64)

    def regulation_callback():
        clock.advance(1024)
        dram()

    in_module("repro.dram.controller", dram_callback)
    in_module("repro.regulation.memguard", regulation_callback)

    def kernel_loop():
        clock.advance(4)
        dispatch(dram_callback)
        clock.advance(8)
        dispatch(regulation_callback)
        clock.advance(16)

    run = tracer.span(kernel_loop, "sim")

    def platform_run():
        clock.advance(1)
        run()
        clock.advance(2)

    tracer.span(platform_run, OTHER)()

    assert tracer.self_s == {
        "sim": 28.0,
        "axi": 384.0,
        "dram": 32.0 + 64.0 + 2048.0,
        "regulation": 1024.0,
        "traffic": 0.0,
        "telemetry": 512.0,
        OTHER: 3.0,
    }
    assert sum(tracer.self_s.values()) == clock.now == 4095.0
    assert tracer.calls == {"tm": 1, "heads": 1}
    assert tracer.events == 2


def test_finalizer_spans_after_the_last_callback_stay_with_the_dispatcher():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    finalizer = tracer.span(lambda: clock.advance(8), "axi")

    def callback():
        clock.advance(2)

    in_module("repro.traffic.cpu", callback)

    def kernel_loop():
        for _ in range(2):
            start = tracer.clock()
            callback()
            tracer.observe(callback, tracer.clock() - start)
        finalizer()
        clock.advance(1)

    tracer.span(kernel_loop, "sim")()

    assert tracer.self_s["traffic"] == 4.0
    assert tracer.self_s["axi"] == 8.0
    assert tracer.self_s["sim"] == 1.0
    assert sum(tracer.self_s.values()) == clock.now


def test_counted_calls_add_no_span():
    clock = FakeClock()
    tracer = LayerTracer(clock)
    classify = tracer.counted(lambda row: clock.advance(row), "classify")
    outer = tracer.span(lambda: [classify(1), classify(2)], "dram")
    outer()
    assert tracer.calls == {"classify": 2}
    assert tracer.self_s["dram"] == 3.0


def test_span_that_raises_is_still_charged():
    clock = FakeClock()
    tracer = LayerTracer(clock)

    def fails():
        clock.advance(5)
        raise ValueError("boom")

    wrapped = tracer.span(fails, "regulation")
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.self_s["regulation"] == 5.0
    assert sum(tracer.self_s.values()) == 5.0
