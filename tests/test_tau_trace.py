"""Event tracing (TAU's second measurement option) as a span timeline."""

from repro.obs.span import SpanTracer
from repro.tau.profiler import Profiler


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_timestamps_monotone():
    tracer = SpanTracer(rank=0)
    p = Profiler(tracer=tracer)
    for _ in range(5):
        with p.timer("tick"):
            pass
    spans = tracer.spans()
    assert len(spans) == 5
    starts = [s.t_start_us for s in spans]
    assert starts == sorted(starts)
    assert all(s.t_end_us >= s.t_start_us for s in spans)


def test_buffer_bounded_with_drop_accounting():
    tracer = SpanTracer(rank=0, max_spans=10, clock=FakeClock())
    p = Profiler(tracer=tracer)
    for i in range(25):
        with p.timer(f"e{i}"):
            pass
    assert len(tracer) <= 10
    assert tracer.dropped_count + len(tracer) == 25
    # newest spans survive
    assert tracer.spans()[-1].name == "e24"
    # a truncated timeline never truncates the profile
    assert sum(p.get(f"e{i}").calls for i in range(25)) == 25
