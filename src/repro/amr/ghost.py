"""Distributed data transfers: ghost-cell updates and inter-level motion.

The paper's AMRMesh component spends its time here: "one [method] that does
'ghost-cell updates' on patches (gets data from abutting, but off-processor
patches onto a patch)".  A :class:`Transfer` moves a rectangular region of
field data from a source patch to a destination patch, optionally through a
resolution change (prolongation/restriction applied at the source);
:func:`execute_transfers` runs a deterministic plan over the simulated MPI
layer with ``isend``/``irecv``/``waitsome`` — the MPI_Waitsome-dominated
pattern of the paper's Figure 3.

Every rank enumerates the same *global* plan from replicated metadata
(every rank knows all patch boxes and owners), but an :class:`ExchangePlan`
keeps only the transfers this rank sends or receives, each with its index
in the global plan.  A message's tag is the exchange's tag base plus that
global index, so sender and receiver agree on it without negotiation and
without either holding the transfers that involve neither of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.amr.box import Box
from repro.amr.interpolation import prolong, restrict
from repro.amr.patch import Patch
from repro.mpi.comm import SimComm
from repro.mpi.request import RecvRequest, waitsome


@dataclass
class Transfer:
    """One region move: src_patch.src_region -> dst_patch.dst_region.

    Regions are boxes in each patch's own level index space.  The source
    block is resampled at the source rank, in this order: prolonged by
    ``power``, cut to ``crop`` (slices into the prolonged block), then
    restricted by ``restrict_by``.  Afterwards its shape must equal the
    destination region's shape.  Plans built by the hierarchy use only
    these plain-data fields, so they can be inspected and pickled;
    ``transform`` is an extra source-side callable for one-off transfers.
    """

    src_patch: Patch
    dst_patch: Patch
    src_region: Box
    dst_region: Box
    power: int = 1
    crop: tuple[slice, slice] | None = None
    restrict_by: int = 1
    transform: Callable[[np.ndarray], np.ndarray] | None = None

    def extract(self, fields: Sequence[str]) -> np.ndarray:
        """Stack the source data block for all fields (at the source rank)."""
        blocks = []
        for f in fields:
            block = np.ascontiguousarray(self.src_patch.view(f, self.src_region))
            if self.power > 1:
                block = prolong(block, self.power)
            if self.crop is not None:
                block = block[self.crop]
            if self.restrict_by > 1:
                block = restrict(block, self.restrict_by)
            if self.transform is not None:
                block = self.transform(block)
            blocks.append(block)
        data = np.stack(blocks)
        expected = self.dst_region.shape
        if data.shape[1:] != expected:
            raise ValueError(
                f"transfer block shape {data.shape[1:]} != destination region "
                f"shape {expected} ({self.src_region} -> {self.dst_region})"
            )
        return data

    def insert(self, data: np.ndarray, fields: Sequence[str]) -> None:
        """Write a received block into the destination patch."""
        for k, f in enumerate(fields):
            self.dst_patch.view(f, self.dst_region)[...] = data[k]
        self.dst_patch.mark_written()


def plan_same_level_exchange(patches: Sequence[Patch]) -> list[Transfer]:
    """Ghost-cell update plan for one level.

    For every ordered pair of distinct patches, the destination's ghost
    frame is filled from the source's *interior* where they overlap.
    Deterministic: patches are traversed in uid order.
    """
    ordered = sorted(patches, key=lambda p: p.uid)
    plan: list[Transfer] = []
    for dst in ordered:
        gbox = dst.box.grow(dst.nghost)
        for src in ordered:
            if src.uid == dst.uid:
                continue
            overlap = gbox.intersection(src.box)
            if overlap is None:
                continue
            # Exclude the destination interior; only true ghost cells.
            if dst.box.contains_box(overlap):
                continue
            plan.append(Transfer(src_patch=src, dst_patch=dst,
                                 src_region=overlap, dst_region=overlap))
    return plan


@dataclass
class ExchangePlan:
    """One rank's share of a global transfer plan.

    ``transfers`` are the global plan's transfers this rank sends or
    receives, ``indices`` their positions in the global plan and ``size``
    the global plan's length.  Tags and the exchanger's tag counter derive
    from the global plan, so they match across ranks.
    """

    transfers: list[Transfer]
    indices: list[int]
    size: int

    @classmethod
    def for_rank(cls, transfers: Sequence[Transfer],
                 rank: int | None) -> "ExchangePlan":
        """Keep the transfers ``rank`` takes part in (all when ``None``)."""
        keep = [i for i, t in enumerate(transfers)
                if rank is None or rank in (t.src_patch.owner, t.dst_patch.owner)]
        return cls([transfers[i] for i in keep], keep, len(transfers))


def execute_transfers(
    transfers: Sequence[Transfer],
    fields: Sequence[str],
    comm: SimComm | None,
    rank: int = 0,
    tag_base: int = 0,
    indices: Sequence[int] | None = None,
) -> float:
    """Run a transfer plan; returns the modeled MPI time consumed (us).

    Local transfers (src and dst owned by ``rank``) copy directly.  Remote
    ones post ``isend``/``irecv`` and drain completions with ``waitsome``,
    the paper's AMRMesh communication pattern.  Transfer ``k`` is tagged
    ``tag_base + indices[k]`` (``tag_base + k`` without ``indices``).  With
    ``comm=None`` the plan must be entirely local (serial runs).
    """
    fields = list(fields)
    if comm is None:
        for t in transfers:
            t.insert(t.extract(fields), fields)
        return 0.0

    before_us = comm.accounting.total_us()
    san = comm.world.sanitizer
    guard = san.ghost_guard(rank) if san is not None else None
    recvs: list[tuple[RecvRequest, Transfer, int]] = []
    for k, t in enumerate(transfers):
        tag = tag_base + (k if indices is None else indices[k])
        src_o, dst_o = t.src_patch.owner, t.dst_patch.owner
        if src_o == rank and dst_o == rank:
            t.insert(t.extract(fields), fields)
        elif src_o == rank:
            comm.isend(t.extract(fields), dest=dst_o, tag=tag)
            if guard is not None:
                guard.watch_send(t.src_patch, t.src_region, fields, tag)
        elif dst_o == rank:
            recvs.append((comm.irecv(source=src_o, tag=tag), t, tag))
            if guard is not None:
                guard.watch_recv(t.dst_patch, t.dst_region, fields, tag)
    pending = [r for r, _t, _tag in recvs]
    by_req = {id(r): (t, tag) for r, t, tag in recvs}
    while any(not r.complete for r in pending):
        done = waitsome(pending)
        for i in done:
            req = pending[i]
            t, tag = by_req[id(req)]
            if guard is not None:
                guard.check_recv(tag)
            t.insert(req.payload, fields)
    if guard is not None:
        guard.check_sends()
    return comm.accounting.total_us() - before_us


class GhostExchanger:
    """Stateful per-level ghost-update driver with deterministic tags.

    One instance per mesh.  Every exchange advances the tag counter by the
    length of the *global* plan, and each message is tagged with its
    transfer's global index, so the counter moves the same way on every
    rank although each rank stores only its own transfers.  That keeps
    message matching unambiguous across overlapping exchanges.
    """

    def __init__(self, comm: SimComm | None = None, rank: int = 0) -> None:
        self.comm = comm
        self.rank = rank if comm is None else comm.rank
        self._tag = 0

    def next_tag_base(self, plan_len: int) -> int:
        base = self._tag
        self._tag += max(plan_len, 1)
        return base

    def plan(self, transfers: Sequence[Transfer]) -> ExchangePlan:
        """This rank's share of a global plan (all of it in serial runs)."""
        return ExchangePlan.for_rank(transfers, None if self.comm is None else self.rank)

    def update_level(self, patches: Sequence[Patch], fields: Sequence[str]) -> float:
        """Same-level ghost-cell update; returns modeled MPI time (us)."""
        return self.run(self.plan(plan_same_level_exchange(patches)), fields)

    def run(self, plan: ExchangePlan, fields: Sequence[str]) -> float:
        """Execute this rank's share of a plan; returns modeled MPI time (us)."""
        base = self.next_tag_base(plan.size)
        return execute_transfers(plan.transfers, fields, self.comm, self.rank,
                                 tag_base=base, indices=plan.indices)
