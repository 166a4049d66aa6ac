"""The TAU component's MeasurementPort and profiler/tracer integration."""

import pytest

from repro.cca import Component, Framework
from repro.obs.span import CAT_COMPUTE, SpanTracer
from repro.tau.component import MeasurementPort, TauMeasurementComponent
from repro.tau.profiler import Profiler


class Inspector(Component):
    def set_services(self, sv):
        self.sv = sv
        sv.register_uses_port("measurement", MeasurementPort)  # ra: noqa[RA003] fetched via insp.sv


@pytest.fixture
def wired():
    fw = Framework()
    tau = fw.create("tau", TauMeasurementComponent)
    insp = fw.create("insp", Inspector)
    fw.connect("insp", "measurement", "tau", "measurement")
    return fw, insp.sv.get_port("measurement")


class TestMeasurementPort:
    def test_timing_interface(self, wired):
        fw, port = wired
        port.start_timer("region")
        port.stop_timer("region")
        assert fw.profiler.get("region").calls == 1

    def test_event_interface(self, wired):
        fw, port = wired
        port.record_event("array_size", 4096.0)
        port.record_event("array_size", 8192.0)
        s = fw.profiler.events.summaries()["array_size"]
        assert s["count"] == 2.0
        assert s["max"] == 8192.0

    def test_control_interface_toggles_group(self, wired):
        fw, port = wired
        port.disable_group("MPI")
        fw.profiler.charge("MPI_Send", 100.0)
        assert fw.profiler.group_total_us("MPI") == 0.0
        port.enable_group("MPI")
        fw.profiler.charge("MPI_Send", 5.0)
        assert fw.profiler.group_total_us("MPI") == 5.0

    def test_query_interface_returns_snapshot(self, wired):
        fw, port = wired
        fw.profiler.charge("MPI_Recv", 42.0)
        fw.profiler.counters.record_flops(7)
        snap = port.query()
        assert snap.mpi_us == 42.0
        assert snap.counters["PAPI_FP_OPS"] == 7

    def test_dump_through_port(self, tmp_path, wired):
        fw, port = wired
        port.start_timer("t")
        port.stop_timer("t")
        path = tmp_path / "profile.0"
        port.dump(str(path))
        assert "t" in path.read_text()

    def test_adopts_framework_profiler_by_default(self, wired):
        fw, port = wired
        assert port.profiler is fw.profiler

    def test_injected_profiler_isolated(self):
        own = Profiler(rank=7)
        fw = Framework()
        tau = fw.create("tau", TauMeasurementComponent, profiler=own)
        assert tau.measurement.profiler is own
        assert tau.measurement.profiler is not fw.profiler

    def test_uninitialized_component_raises(self):
        comp = TauMeasurementComponent()
        with pytest.raises(RuntimeError, match="not yet initialized"):
            comp.measurement


class TestProfilerTracing:
    def test_timer_brackets_traced(self):
        tracer = SpanTracer(rank=0)
        p = Profiler(tracer=tracer)
        with p.timer("outer"):
            with p.timer("inner"):
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert sorted(spans) == ["inner", "outer"]
        assert all(s.category == CAT_COMPUTE for s in spans.values())
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert tracer.open_depth() == 0

    def test_charge_adds_virtual_us_to_enclosing_spans(self):
        tracer = SpanTracer(rank=0)
        p = Profiler(tracer=tracer)
        with p.timer("outer"):
            with p.timer("inner"):
                p.charge("MPI_Waitsome", 33.0)
            p.charge("MPI_Send", 7.0)
        p.charge("MPI_Barrier", 5.0)  # no enclosing span: timers only
        spans = {s.name: s for s in tracer.spans()}
        assert sorted(spans) == ["inner", "outer"]
        assert spans["inner"].attrs["virtual_us"] == 33.0
        assert spans["outer"].attrs["virtual_us"] == 40.0
        assert p.get("MPI_Barrier").inclusive_us == 5.0

    def test_disabled_group_not_traced(self):
        tracer = SpanTracer(rank=0)
        p = Profiler(tracer=tracer)
        p.disable_group("MPI")
        with p.timer("region"):
            p.charge("MPI_Send", 1.0)
            p.start("t", group="MPI")
            p.stop("t")
        assert [s.name for s in tracer.spans()] == ["region"]
        assert "virtual_us" not in tracer.spans()[0].attrs

    def test_no_tracer_is_fine(self):
        p = Profiler()
        with p.timer("t"):
            pass
        assert p.get("t").calls == 1
