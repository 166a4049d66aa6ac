"""The case-study workloads and the serial reference problem.

Each workload is a :class:`~repro.harness.casestudy.CaseStudyConfig`
built from the benchmark's ``--seed``; the program receives only the
config.  README.md beside this file says why each one was chosen and which
layer metrics it should move.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.euler.ports import DriverParams
from repro.faults.checkpoint import CheckpointConfig
from repro.harness.casestudy import CaseStudyConfig
from repro.obs.runtime import ObsConfig


@dataclass(frozen=True)
class Workload:
    name: str
    #: (seed, checkpoint directory or None) -> the run's config
    build: Callable[[int, str | None], CaseStudyConfig]
    #: fit the paper's Eq. 1-2 models from rank 0's Mastermind after a run
    fit_models: bool = False
    #: the run writes checkpoints into a fresh directory
    checkpoints: bool = False


def _paper3(seed: int, ckpt_dir: str | None) -> CaseStudyConfig:
    """The paper's configuration: Euler kernels and TAU/proxy
    instrumentation do most of the work; transport is in-process."""
    return CaseStudyConfig(params=DriverParams(steps=8), flux="efm",
                           nranks=3, instrument=True, observe=None, seed=seed)


def _shm2_ckpt(seed: int, ckpt_dir: str | None) -> CaseStudyConfig:
    """The only workload crossing process boundaries, writing to disk and
    recording obs spans; plans are rebuilt every step."""
    if ckpt_dir is None:
        raise ValueError("shm2-ckpt needs a checkpoint directory")
    return CaseStudyConfig(
        params=DriverParams(steps=8, regrid_every=1), flux="godunov",
        nranks=2, backend="mp-shm", instrument=True, seed=seed,
        observe=ObsConfig(sample_every=1, adaptive=False),
        checkpoint=CheckpointConfig(directory=ckpt_dir, every=2))


def serial_reference(seed: int) -> CaseStudyConfig:
    """The ``paper3`` problem on one rank, uninstrumented (context only)."""
    return replace(_paper3(seed, None), nranks=1, instrument=False)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("paper3", _paper3, fit_models=True),
    Workload("shm2-ckpt", _shm2_ckpt, checkpoints=True),
)}
