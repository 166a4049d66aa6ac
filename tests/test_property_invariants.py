"""Cross-cutting property-based invariants (hypothesis).

These pin down conservation-style guarantees that unit tests only sample:
time accounting closure in the profiler, TVD bounds in the reconstruction,
kinetic flux split positivity, and workload-cost linearity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.euler.efm import efm_half_flux
from repro.euler.kernels import reconstruct_line
from repro.models.composite import Workload
from repro.models.fits import fit_linear
from repro.models.performance import PerformanceModel
from repro.tau.profiler import Profiler


# --------------------------------------------------------------------- #
# Profiler: exclusive-time closure
# --------------------------------------------------------------------- #
class TickClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_profiler_exclusive_time_closure(data):
    """Inside one root timer, every tick lands in exactly one exclusive.

    Random well-nested start/stop sequences with distinct timer names:
    sum over timers of exclusive time == the root's inclusive time.
    """
    clock = TickClock()
    p = Profiler(clock=clock)
    p.start("root")  # ra: noqa[RA001] stopped by the stack unwind below
    stack = ["root"]
    next_id = 0
    for _ in range(data.draw(st.integers(0, 30))):
        clock.t += data.draw(st.floats(0.0, 10.0))
        if len(stack) > 1 and data.draw(st.booleans()):
            p.stop(stack.pop())
        else:
            name = f"t{next_id}"
            next_id += 1
            p.start(name)
            stack.append(name)
    while stack:
        clock.t += data.draw(st.floats(0.0, 10.0))
        p.stop(stack.pop())
    snap = p.timers_snapshot()
    total_exclusive = sum(t.exclusive_us for t in snap.values())
    assert total_exclusive == pytest.approx(snap["root"].inclusive_us, rel=1e-9)
    for t in snap.values():
        assert t.exclusive_us <= t.inclusive_us + 1e-9
        assert t.exclusive_us >= -1e-9


# --------------------------------------------------------------------- #
# MUSCL reconstruction: TVD bounds
# --------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(-100.0, 100.0), min_size=8, max_size=40),
)
def test_reconstruction_respects_local_bounds(values):
    """Minmod-limited interface values never leave the local data range."""
    w = np.asarray(values)
    g = 2
    wl, wr = reconstruct_line(w, g)
    nf = wl.shape[0]
    for k in range(nf):
        cell_l = g - 1 + k  # cell left of interface k
        lo = min(w[max(cell_l - 1, 0) : cell_l + 2].min(),
                 w[cell_l : cell_l + 3].min())
        hi = max(w[max(cell_l - 1, 0) : cell_l + 2].max(),
                 w[cell_l : cell_l + 3].max())
        assert lo - 1e-9 <= wl[k] <= hi + 1e-9
        assert lo - 1e-9 <= wr[k] <= hi + 1e-9


# --------------------------------------------------------------------- #
# EFM kinetic split: directional positivity and consistency
# --------------------------------------------------------------------- #
@settings(max_examples=100, deadline=None)
@given(
    rho=st.floats(0.05, 50.0),
    u=st.floats(-20.0, 20.0),
    ut=st.floats(-10.0, 10.0),
    p=st.floats(0.05, 50.0),
)
def test_efm_half_mass_fluxes_are_directional(rho, u, ut, p):
    """F+ carries mass rightward (>= 0), F- leftward (<= 0), for any state."""
    W = np.array([[rho], [u], [ut], [p]])
    f_plus = efm_half_flux(W, +1.0, 1.4)
    f_minus = efm_half_flux(W, -1.0, 1.4)
    assert f_plus[0, 0] >= -1e-12
    assert f_minus[0, 0] <= 1e-12
    # consistency (checked elsewhere too, kept as the closure property)
    total_mass = f_plus[0, 0] + f_minus[0, 0]
    assert total_mass == pytest.approx(rho * u, rel=1e-9, abs=1e-9)


# --------------------------------------------------------------------- #
# Workload cost: linearity in counts
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    qs=st.lists(st.floats(1.0, 1e5), min_size=1, max_size=6, unique=True),
    counts=st.lists(st.integers(0, 50), min_size=1, max_size=6),
    a=st.floats(0.0, 100.0),
    b=st.floats(0.0, 1.0),
)
def test_workload_cost_linear_in_counts(qs, counts, a, b):
    n = min(len(qs), len(counts))
    qs, counts = qs[:n], counts[:n]
    model = PerformanceModel("m", fit_linear([0.0, 1.0], [a, a + b]))
    w1 = Workload(tuple(qs), tuple(counts))
    w2 = Workload(tuple(qs), tuple(2 * c for c in counts))
    assert w2.expected_cost(model) == pytest.approx(2 * w1.expected_cost(model),
                                                    rel=1e-9, abs=1e-9)


# --------------------------------------------------------------------- #
# Atomic events vs timers: counts agree when driven together
# --------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 50))
def test_event_count_matches_timer_calls(n):
    clock = TickClock()
    p = Profiler(clock=clock)
    for i in range(n):
        p.start("op")
        clock.t += 1.0
        p.stop("op")
        p.events.record("op_size", float(i))
    if n:
        assert p.get("op").calls == n
        assert p.events.event("op_size").count == n
        assert p.get("op").inclusive_us == pytest.approx(float(n))
