"""One case-study run, timed and probed from outside the program.

A run goes through ``run_scmd(..., compose=..., extract=...)`` with
:func:`~repro.harness.casestudy.compose_case_study`.  The compose hook adds
a pre- and a post-step hook to the driver (set-up end, step times, cell
updates); the extract hook ships each rank's final hierarchy state, probe
data and, in a traced run, its layer ledger back to the parent — from a
rank thread or a forked mp-shm rank process alike.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from layers import LayerTracer
from workloads import Workload

from repro.cca.scmd import run_scmd
from repro.faults.checkpoint import hierarchy_state
from repro.harness.casestudy import (FLUX_PROXY, STATES_PROXY,
                                     compose_case_study)
from repro.obs.export import collect

SHM_DIR = "/dev/shm"


class RankProbe:
    """Driver hooks of one rank: set-up end, step times, cell updates."""

    def __init__(self, count_cells: bool) -> None:
        self.count_cells = count_cells
        self.first_step_at: float | None = None
        self.step_s: list[float] = []
        self.cell_updates = 0
        self._t = 0.0

    def pre_step(self, step: int) -> None:
        self._t = time.perf_counter()
        if self.first_step_at is None:
            self.first_step_at = self._t

    def post_step(self, mesh: Any, step: int) -> None:
        self.step_s.append(time.perf_counter() - self._t)
        if self.count_cells:
            # Level l advances r**l substeps per coarse step; only populated
            # levels advance (RK2 recursion stops at the first empty one).
            h = mesh.hierarchy()
            self.cell_updates += sum(int(h.total_cells(lev)) * h.r ** lev
                                     for lev in range(h.max_levels)
                                     if h.levels[lev])


@dataclass
class RunRecord:
    """What one run measured and what its checks found."""

    traced: bool
    problems: list[str] = field(default_factory=list)
    run_s: float = 0.0
    setup_s: float = 0.0
    #: per step index, the slowest rank's step time
    step_s: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    #: share of the VM's CPU time that the hypervisor gave to other
    #: guests during the run (steal in /proc/stat)
    steal: float = 0.0
    cell_updates: int = 0
    modeled_ms: float = 0.0
    rank_states: list[dict] = field(default_factory=list)
    rank_extras: list[dict] = field(default_factory=list)
    retries: int = 0
    obs_spans: int = 0
    obs_spans_dropped: int = 0
    obs_collect_s: float = 0.0
    shm: dict[str, float] = field(default_factory=dict)
    host_ledger: dict | None = None


def _cpu_s() -> float:
    """CPU seconds of this process plus every rank process it reaped."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _vm_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of this machine so far, or (0, 0) where
    /proc/stat is not available."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any rank process it reaped."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


def stop_helper_processes() -> None:
    """Stop multiprocessing's resource tracker, which the mp-shm rings start,
    and wait for it to end, so no process outlives the benchmark."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def modeled_mpi_ms(world: Any, nranks: int) -> float:
    """Network-model MPI time of the slowest rank, excluding
    ``MPI_Waitsome`` (its completion grouping follows wall-clock arrival
    order, so it is the one routine that varies run to run)."""
    acc = world.accounting
    return max(
        sum(s.total_us for name, s in acc[r].routine_totals().items()
            if name != "MPI_Waitsome")
        for r in range(nranks)) / 1000.0


def _transport_metrics(dump: Any) -> dict[str, float]:
    """mp-shm counters published by ``export_transport_metrics()``."""
    sums: dict[str, float] = {}
    gauges: list[float] = []
    for reg in dump.registries:
        for entry in reg.snapshot()["metrics"]:
            name = entry["name"]
            if name == "shm_poll_interval_us":
                gauges.append(float(entry["value"]))
            elif name.startswith("shm_"):
                sums[name] = sums.get(name, 0.0) + float(entry["value"])
    if not sums:
        return {}
    frames = sums.get("shm_frames_sent_total", 0.0)
    batches = sums.get("shm_batches_sent_total", 0.0)
    coalesced = sums.get("shm_frames_coalesced_total", 0.0)
    logical = frames - batches + coalesced
    return {
        "frames": frames,
        "batches": batches,
        "coalesced_ratio": coalesced / logical if logical else 0.0,
        "spins": sums.get("shm_poll_spins_total", 0.0),
        "parks": sums.get("shm_poll_parks_total", 0.0),
        "poll_interval_us": sum(gauges) / len(gauges) if gauges else 0.0,
    }


def _fit_models(mastermind: Any) -> None:
    """The paper's Eq. 1-2 models for States and the flux (Figures 6, 8)."""
    mastermind.build_performance_model(
        STATES_PROXY, "compute", mean_families=("power", "linear"),
        min_bin_count=2)
    mastermind.build_performance_model(
        FLUX_PROXY, "compute", mean_families=("linear", "power"),
        min_bin_count=2)


def run_once(workload: Workload, seed: int, scratch: str,
             tracer: LayerTracer | None = None) -> RunRecord:
    """One full run of ``workload``; ``tracer`` (installed) traces it."""
    ckpt_dir = (tempfile.mkdtemp(prefix="ckpt-", dir=scratch)
                if workload.checkpoints else None)
    config = workload.build(seed, ckpt_dir)
    nranks = config.nranks
    own_process = config.backend != "thread"
    probes: dict[int, RankProbe] = {}

    def compose(fw: Any) -> None:
        rank = fw.comm.rank if fw.comm is not None else 0
        if tracer is not None:
            tracer.begin_rank(rank, nranks, own_process)
        probe = probes[rank] = RankProbe(count_cells=rank == 0)
        if tracer is not None:
            tracer.frame("cca.compose", compose_case_study, fw, config)
        else:
            compose_case_study(fw, config)
        mesh = fw.component("mesh")
        driver = fw.component("driver")
        driver.pre_step_hooks.append(probe.pre_step)
        driver.post_step_hooks.append(lambda step: probe.post_step(mesh, step))

    def extract(fw: Any) -> dict:
        ledger = tracer.end_rank() if tracer is not None else None
        rank = fw.comm.rank if fw.comm is not None else 0
        probe = probes[rank]
        driver = fw.component("driver")
        h = fw.component("mesh").hierarchy()
        ckpt = getattr(driver, "checkpointer", None)
        kernel = getattr(fw.component("flux"), "kernel", None)
        return {
            "first_step_at": probe.first_step_at,
            "step_s": probe.step_s,
            "cell_updates": probe.cell_updates,
            "state": hierarchy_state(h),
            "patches": sum(len(h.levels[lev]) for lev in range(h.max_levels)),
            "riemann_iters": int(getattr(kernel, "total_iterations", 0)),
            "ckpt_writes": len(ckpt.saved_steps) if ckpt is not None else 0,
            "ckpt_bytes": ckpt.bytes_written if ckpt is not None else 0,
            "mastermind": (fw.component("mastermind")
                           if rank == 0 and workload.fit_models else None),
            "ledger": ledger,
        }

    rec = RunRecord(traced=tracer is not None)
    shm_before = _shm_segments()
    try:
        steal0, ticks0 = _vm_ticks()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        res = run_scmd(
            nranks, compose, go_instance="driver", network=config.network,
            seed=config.seed, extract=extract, timeout_s=config.timeout_s,
            observe=config.observe, backend=config.backend,
            collectives=config.collectives)
        if tracer is not None:
            tracer.begin_host()
        if workload.fit_models:
            _fit_models(res.extras[0]["mastermind"])
        dump = None
        if config.observe is not None:
            c0 = time.perf_counter()
            dump = collect(res.world)
            rec.obs_collect_s = time.perf_counter() - c0
        t1 = time.perf_counter()
        rec.cpu_s = _cpu_s() - cpu0
        steal1, ticks1 = _vm_ticks()
        if ticks1 > ticks0:
            rec.steal = (steal1 - steal0) / (ticks1 - ticks0)
    finally:
        if tracer is not None:
            rec.host_ledger = tracer.end_rank()
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)

    rec.run_s = t1 - t0
    extras = res.extras
    bad = [r for r, v in enumerate(res.results) if v != 0]
    if bad:
        rec.problems.append(f"non-zero rank results on ranks {bad}")
    starts = [e["first_step_at"] for e in extras]
    if any(s is None for s in starts):
        rec.problems.append("a rank took no step")
    else:
        rec.setup_s = max(starts) - t0
        rec.step_s = [max(col) for col in zip(*(e["step_s"] for e in extras))]
    rec.cell_updates = extras[0]["cell_updates"]
    rec.modeled_ms = modeled_mpi_ms(res.world, nranks)
    rec.rank_states = [e.pop("state") for e in extras]
    for e in extras:
        e.pop("mastermind")
    rec.rank_extras = extras
    resilience = getattr(res.world, "resilience", None) or []
    rec.retries = sum(s.retry_rounds + s.collective_retries
                      + s.component_retries for s in resilience)
    if dump is not None:
        rec.obs_spans = len(dump.spans)
        rec.obs_spans_dropped = dump.dropped_total
        rec.shm = _transport_metrics(dump)

    # Leak checks: nothing the run created may outlive it.
    leaked = sorted(_shm_segments() - shm_before)
    if leaked:
        rec.problems.append(f"shared-memory segments left behind: {leaked}")
    if ckpt_dir is not None and os.path.exists(ckpt_dir):
        rec.problems.append(f"checkpoint directory left behind: {ckpt_dir}")
    alive = multiprocessing.active_children()
    if alive:
        rec.problems.append(f"rank processes still alive: {alive}")
    return rec
