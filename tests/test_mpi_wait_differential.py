"""Seeded generative differential test of the blocking-wait policy.

Hypothesis draws small plans of message faults (recoverable and
unrecoverable drops, duplicates, delays) and runs each on the thread and
the mp-shm backend over one kernel that blocks in every way the mailbox
wait serves: ``recv``, ``irecv`` + ``waitsome``, ``probe`` and
``allreduce``, all with fixed sources.  Both backends must agree: equal
results and equal per-rank ``recovered``/``failures``, or the same typed
failure (:class:`~repro.faults.policy.CommFailure`).  No shared-memory
segment may outlive a run, on any path.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import DELAY, DROP, DUPLICATE, FaultPlan, MessageFault
from repro.faults.policy import ResiliencePolicy
from repro.mpi import RankFailure, create_world
from repro.mpi.request import waitsome

BACKENDS = ("thread", "mp-shm")

#: fast rounds so a lost message fails in well under a second
POLICY = ResiliencePolicy(max_attempts=3, retry_timeout_s=0.02,
                          backoff_factor=1.5, retransmit_cost_us=500.0)

SHM_DIR = "/dev/shm"


def kernel(comm):
    """Ring recv, all-peer irecv + waitsome, probe then recv, allreduce."""
    r, size = comm.rank, comm.size
    right, left = (r + 1) % size, (r - 1) % size
    comm.send(("ring", r), right, tag=1)
    out = [comm.recv(source=left, tag=1)]
    peers = [p for p in range(size) if p != r]
    reqs = [comm.irecv(source=p, tag=2) for p in peers]
    for p in peers:
        comm.send(("fan", r, p), p, tag=2)
    done: set[int] = set()
    while len(done) < len(reqs):
        done.update(waitsome(reqs))
    out.extend(req.payload for req in reqs)
    comm.send(("probe", r), left, tag=3)
    comm.probe(source=right, tag=3)
    out.append(comm.recv(source=right, tag=3))
    out.append(comm.allreduce(r + 1))
    return out


@st.composite
def fault_plans(draw):
    nranks = draw(st.sampled_from((2, 3)))
    sends = nranks + 1  # user sends per rank in the kernel
    fault = st.builds(
        MessageFault,
        kind=st.sampled_from((DROP, DUPLICATE, DELAY)),
        source=st.one_of(st.none(), st.integers(0, nranks - 1)),
        index=st.integers(0, sends - 1),
        count=st.integers(1, 2),
        delay_us=st.sampled_from((0.0, 250.0)),
        delay_factor=st.sampled_from((1.0, 3.0)),
        recoverable=st.booleans(),
    )
    messages = draw(st.lists(fault, min_size=1, max_size=3))
    return nranks, FaultPlan(seed=draw(st.integers(0, 99)),
                             messages=tuple(messages))


def _segments() -> set[str]:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def run(backend, nranks, plan):
    """('ok', results, per-rank (recovered, failures)) or ('failed', text)."""
    world = create_world(backend, nranks=nranks, seed=3, timeout_s=20.0,
                         injector=FaultInjector(plan, nranks), policy=POLICY)
    try:
        results = world.run(kernel)
    except RankFailure as exc:
        return ("failed", str(exc))
    stats = [(s.recovered, s.failures) for s in world.last_world.resilience]
    return ("ok", results, stats)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(fault_plans())
def test_thread_and_mp_shm_agree_on_every_fault_plan(case):
    nranks, plan = case
    before = _segments()
    thread = run("thread", nranks, plan)
    shm = run("mp-shm", nranks, plan)
    assert _segments() - before == set()
    if thread[0] == "failed" or shm[0] == "failed":
        assert thread[0] == shm[0] == "failed", (plan, thread, shm)
        assert "CommFailure" in thread[1], thread[1]
        assert "CommFailure" in shm[1], shm[1]
        return
    assert thread == shm, (plan, thread, shm)
