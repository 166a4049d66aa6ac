"""Profiler semantics: nesting, exclusivity, groups, charging, dumping."""

import os

import pytest

from repro.tau.profiler import MPI_GROUP, Profiler


class FakeClock:
    """Deterministic clock: each now() call can be advanced manually."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


@pytest.fixture
def clocked():
    clock = FakeClock()
    return Profiler(rank=0, clock=clock), clock


def test_simple_timer(clocked):
    p, clock = clocked
    p.start("a")
    clock.tick(100.0)
    elapsed = p.stop("a")
    assert elapsed == 100.0
    stats = p.get("a")
    assert stats.inclusive_us == 100.0
    assert stats.exclusive_us == 100.0
    assert stats.calls == 1


def test_nested_inclusive_exclusive(clocked):
    p, clock = clocked
    p.start("outer")
    clock.tick(10.0)
    p.start("inner")
    clock.tick(30.0)
    p.stop("inner")
    clock.tick(5.0)
    p.stop("outer")
    outer, inner = p.get("outer"), p.get("inner")
    assert outer.inclusive_us == 45.0
    assert outer.exclusive_us == 15.0
    assert inner.inclusive_us == 30.0
    assert inner.exclusive_us == 30.0


def test_reentrant_timer_counts_inclusive_once(clocked):
    p, clock = clocked
    p.start("r")
    clock.tick(10.0)
    p.start("r")  # recursion
    clock.tick(20.0)
    p.stop("r")
    clock.tick(5.0)
    p.stop("r")
    stats = p.get("r")
    assert stats.calls == 2
    assert stats.inclusive_us == 35.0  # not 55: inner bracketing not re-added
    # exclusive: inner 20 + outer (35 - child 20) = 35 total
    assert stats.exclusive_us == 35.0


def test_mismatched_stop_raises(clocked):
    p, clock = clocked
    p.start("a")
    p.start("b")  # ra: noqa[RA001] the mismatch under test
    with pytest.raises(RuntimeError, match="does not match"):
        p.stop("a")


def test_stop_without_start_raises(clocked):
    p, _ = clocked
    with pytest.raises(RuntimeError, match="no timer running"):
        p.stop("never")  # ra: noqa[RA001] the error path under test


def test_timer_context_manager(clocked):
    p, clock = clocked
    with p.timer("ctx"):
        clock.tick(7.0)
    assert p.get("ctx").inclusive_us == 7.0


def test_context_manager_stops_on_exception(clocked):
    p, clock = clocked
    with pytest.raises(ValueError):
        with p.timer("ctx"):
            clock.tick(3.0)
            raise ValueError("inner")
    assert p.get("ctx").calls == 1
    assert p.running() == []


def test_group_disable_suppresses(clocked):
    p, clock = clocked
    p.disable_group("MPI")
    p.charge("MPI_Send", 100.0, group="MPI")
    p.start("t", group="MPI")
    clock.tick(10.0)
    assert p.stop("t") == 0.0
    assert p.group_total_us("MPI") == 0.0
    p.enable_group("MPI")
    p.charge("MPI_Send", 5.0, group="MPI")
    assert p.group_total_us("MPI") == 5.0


def test_charge_extends_enclosing_inclusive_not_exclusive(clocked):
    p, clock = clocked
    p.start("method")
    clock.tick(10.0)
    p.charge("MPI_Waitsome", 50.0)
    clock.tick(10.0)
    p.stop("method")
    m = p.get("method")
    assert m.inclusive_us == 70.0  # 20 wall + 50 charged
    assert m.exclusive_us == 20.0
    w = p.get("MPI_Waitsome")
    assert w.inclusive_us == w.exclusive_us == 50.0
    assert w.group == MPI_GROUP


def test_charge_with_empty_stack(clocked):
    p, _ = clocked
    p.charge("MPI_Send", 3.0)
    assert p.get("MPI_Send").inclusive_us == 3.0


def test_charge_negative_rejected(clocked):
    p, _ = clocked
    with pytest.raises(ValueError):
        p.charge("x", -1.0)


def test_group_total_sums_only_group(clocked):
    p, clock = clocked
    p.charge("MPI_Send", 5.0)
    p.charge("MPI_Recv", 7.0)
    with p.timer("compute"):
        clock.tick(100.0)
    assert p.group_total_us(MPI_GROUP) == 12.0
    assert p.group_total_us("default") == 100.0


def test_running_stack_names(clocked):
    p, _ = clocked
    p.start("a")  # ra: noqa[RA001] left running: the stack is under test
    p.start("b")
    assert p.running() == ["a", "b"]
    p.stop("b")
    assert p.running() == ["a"]


def test_snapshot_is_a_copy(clocked):
    p, clock = clocked
    with p.timer("t"):
        clock.tick(1.0)
    snap = p.timers_snapshot()
    snap["t"].inclusive_us = 999.0
    assert p.get("t").inclusive_us == 1.0


def test_dump_writes_profile_file(tmp_path, clocked):
    p, clock = clocked
    with p.timer("region"):
        clock.tick(2.0)
    p.events.record("ev", 4.5)
    p.counters.record_flops(10)
    path = tmp_path / "profile.0"
    p.dump(str(path))
    text = path.read_text()
    assert "region" in text
    assert "ev" in text
    assert "PAPI_FP_OPS" in text


def test_dump_failure_keeps_previous_profile(tmp_path, clocked, monkeypatch):
    p, clock = clocked
    with p.timer("first"):
        clock.tick(1.0)
    path = tmp_path / "profile.0"
    p.dump(str(path))
    before = path.read_text()
    with p.timer("second"):
        clock.tick(1.0)

    def crash(src, dst):
        raise OSError("simulated crash mid-dump")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="mid-dump"):
        p.dump(str(path))
    monkeypatch.undo()
    assert path.read_text() == before
    assert "second" not in before
    assert os.listdir(tmp_path) == ["profile.0"]  # no temp file left behind
