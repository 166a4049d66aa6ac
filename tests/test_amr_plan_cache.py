"""Cached transfer plans: one build per (kind, level) per decomposition,
per-rank plans that partition the global plan, plain-data pickling, and
no stale plans after a checkpoint restore."""

import pickle
import threading
from collections import Counter, defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import hierarchy
from repro.amr.box import Box
from repro.amr.ghost import ExchangePlan, plan_same_level_exchange
from repro.amr.hierarchy import GridHierarchy
from repro.amr.patch import Patch
from repro.euler.ports import DriverParams
from repro.faults.checkpoint import (hierarchy_state, hierarchy_states_equal,
                                     restore_hierarchy)
from repro.harness.casestudy import CaseStudyConfig, run_case_study

FIELDS = ["rho", "E"]


def _blobs(X, Y):
    rho = 1.0 + 3.0 * np.exp(-((X - 0.4) ** 2 + (Y - 0.6) ** 2) / 0.01)
    return {"rho": rho, "E": 2.0 * rho + X}


def three_level_hierarchy() -> GridHierarchy:
    h = GridHierarchy(Box(0, 0, 31, 31), FIELDS, max_levels=3,
                      max_patch_cells=256)
    h.init_level0()
    h.fill(0, _blobs)
    h.regrid()
    h.regrid()
    assert all(h.levels[lev] for lev in range(3))
    return h


def ghost_update_all(h: GridHierarchy) -> None:
    for lev in range(h.max_levels):
        if h.levels[lev]:
            h.ghost_update(lev)


# ------------------------------------------------------------------ cache
def test_each_builder_runs_once_per_kind_level_and_generation(monkeypatch):
    generation: defaultdict[int, int] = defaultdict(int)
    builds: Counter = Counter()
    updates: Counter = Counter()

    def counted(kind, fn, level_of):
        def wrapper(*args):
            me = threading.get_ident()
            builds[(me, generation[me], kind, level_of(*args))] += 1
            return fn(*args)
        return wrapper

    real_replace = GridHierarchy.replace_level
    real_update = GridHierarchy.ghost_update

    def replace_level(self, level, patches):
        generation[threading.get_ident()] += 1
        real_replace(self, level, patches)

    def ghost_update(self, level):
        updates[threading.get_ident()] += 1
        return real_update(self, level)

    monkeypatch.setattr(GridHierarchy, "replace_level", replace_level)
    monkeypatch.setattr(GridHierarchy, "ghost_update", ghost_update)
    monkeypatch.setattr(hierarchy, "plan_same_level_exchange", counted(
        "same", plan_same_level_exchange, lambda patches: patches[0].level))
    monkeypatch.setattr(GridHierarchy, "_interlevel_ghost_phases", counted(
        "interlevel", GridHierarchy._interlevel_ghost_phases,
        lambda self, level: level))
    monkeypatch.setattr(GridHierarchy, "_restriction_transfers", counted(
        "restrict", GridHierarchy._restriction_transfers,
        lambda self, level: level))

    res = run_case_study(CaseStudyConfig(
        params=DriverParams(nx=32, ny=32, steps=3, regrid_every=1,
                            max_patch_cells=1024),
        nranks=3, instrument=False))
    assert res.results == [0, 0, 0]
    assert set(builds.values()) == {1}, \
        [key for key, n in builds.items() if n > 1]
    assert {key[2] for key in builds} == {"same", "interlevel", "restrict"}
    ranks = {key[0] for key in builds}
    assert len(ranks) == 3
    for rank in ranks:
        # regrids replace levels again and again, yet most ghost updates
        # run on a plan built earlier in the same generation
        assert generation[rank] >= 4
        built = sum(1 for key in builds if key[0] == rank and key[2] == "same")
        assert built < updates[rank] / 2


# ------------------------------------------------------- per-rank split
@st.composite
def level_layouts(draw):
    """Disjoint patches from a random tensor grid with random holes."""
    nranks = draw(st.integers(1, 5))
    edges = []
    for _axis in range(2):
        cuts = draw(st.lists(st.integers(1, 15), max_size=4))
        edges.append([0, *sorted(set(cuts)), 16])
    boxes = [Box(i0, j0, i1 - 1, j1 - 1)
             for i0, i1 in zip(edges[0], edges[0][1:])
             for j0, j1 in zip(edges[1], edges[1][1:])]
    keep = draw(st.lists(st.booleans(), min_size=len(boxes),
                         max_size=len(boxes)))
    nghost = draw(st.integers(1, 3))
    patches = [Patch(box=b, level=0, nghost=nghost, uid=k,
                     owner=draw(st.integers(0, nranks - 1)))
               for k, b in enumerate(boxes) if keep[k]]
    return patches, nranks


@settings(max_examples=60, deadline=None)
@given(layout=level_layouts())
def test_rank_plans_partition_the_global_plan(layout):
    patches, nranks = layout
    global_plan = plan_same_level_exchange(patches)
    plans = [ExchangePlan.for_rank(global_plan, r) for r in range(nranks)]

    assert {p.size for p in plans} == {len(global_plan)}
    for p in plans:
        assert p.indices == sorted(set(p.indices))
        assert all(t is global_plan[i] for i, t in zip(p.indices, p.transfers))
    pairs = {(i, id(t)) for p in plans for i, t in zip(p.indices, p.transfers)}
    assert pairs == {(i, id(t)) for i, t in enumerate(global_plan)}
    for i, t in enumerate(global_plan):
        holders = {r for r, p in enumerate(plans) if i in p.indices}
        assert holders == {t.src_patch.owner, t.dst_patch.owner}


# ------------------------------------------------------------ plain data
def test_cached_plan_pickles_and_extracts_bitwise():
    h = three_level_hierarchy()
    ghost_update_all(h)
    h.sync_down(1)
    h.sync_down(0)
    phases = [ph for key in sorted(h._plans) for ph in h._plans[key]]
    transfers = [t for ph in phases for t in ph.transfers]
    assert any(t.power > 1 and t.crop is not None for t in transfers)
    assert any(t.restrict_by > 1 for t in transfers)
    for plan in phases:
        clone = pickle.loads(pickle.dumps(plan))
        assert (clone.indices, clone.size) == (plan.indices, plan.size)
        for t, c in zip(plan.transfers, clone.transfers, strict=True):
            assert t.extract(FIELDS).tobytes() == c.extract(FIELDS).tobytes()


# ------------------------------------------------------ restore hazard
def test_restore_into_warm_hierarchy_uses_restored_patches():
    h = three_level_hierarchy()
    # Leave the ghosts stale in the saved state, so only a ghost update
    # that reaches the restored patches can bring them up to date.
    for lev in range(h.max_levels):
        for p in h.local_patches(lev):
            for f in FIELDS:
                p.interior(f)[...] *= 1.5
    state = hierarchy_state(h)

    ghost_update_all(h)  # warm every cached plan
    assert h._plans
    restore_hierarchy(h, state)
    ghost_update_all(h)

    fresh = GridHierarchy(Box(0, 0, 31, 31), FIELDS, max_levels=3,
                          max_patch_cells=256)
    restore_hierarchy(fresh, state)
    ghost_update_all(fresh)
    assert hierarchy_states_equal(hierarchy_state(h), hierarchy_state(fresh))
    assert not hierarchy_states_equal(hierarchy_state(h), state)
