"""ParallelRunner and MPIAccounting behaviour."""

import pytest

from repro.mpi import MPIAccounting, ParallelRunner, RankFailure
from repro.mpi.network import LOOPBACK


def test_results_ordered_by_rank(runner3):
    assert runner3.run(lambda comm: comm.rank * 10) == [0, 10, 20]


def test_args_and_kwargs_forwarded(runner3):
    def job(comm, a, b=0):
        return comm.rank + a + b

    assert runner3.run(job, 100, b=1) == [101, 102, 103]


def test_rank_exception_aborts_and_reports():
    def job(comm):
        if comm.rank == 1:
            raise ValueError("boom on rank 1")
        comm.recv(source=1)  # would deadlock without abort

    runner = ParallelRunner(2, network=LOOPBACK, timeout_s=10.0)
    with pytest.raises(RankFailure) as exc_info:
        runner.run(job)
    assert "boom on rank 1" in str(exc_info.value)
    assert 1 in exc_info.value.failures


def test_secondary_abort_failures_suppressed():
    """Ranks killed by the abort shouldn't mask the root cause."""

    def job(comm):
        if comm.rank == 0:  # ra: noqa[RA009] rank 0 must block to be aborted
            comm.barrier()  # blocks; gets aborted
        raise RuntimeError("primary failure")

    runner = ParallelRunner(2, network=LOOPBACK, timeout_s=10.0)
    with pytest.raises(RankFailure) as exc_info:
        runner.run(job)
    assert "primary failure" in str(exc_info.value)


def test_world_accessible_after_run(runner3):
    runner3.run(lambda comm: comm.allreduce(1))
    world = runner3.last_world
    assert world is not None
    assert all(acct.calls("MPI_Allreduce") == 1 for acct in world.accounting)


def test_single_rank_run():
    runner = ParallelRunner(1, network=LOOPBACK)
    assert runner.run(lambda comm: comm.allreduce(5)) == [5]


def test_invalid_nranks():
    with pytest.raises(ValueError):
        ParallelRunner(0)


class TestAccounting:
    def test_record_and_total(self):
        a = MPIAccounting()
        a.record("MPI_Send", 2.0)
        a.record("MPI_Send", 3.0)
        a.record("MPI_Recv", 10.0)
        assert a.total_us() == 15.0
        assert a.calls("MPI_Send") == 2
        assert a.calls("MPI_Bcast") == 0

    def test_routine_totals_snapshot_is_copy(self):
        a = MPIAccounting()
        a.record("MPI_Send", 1.0)
        snap = a.routine_totals()
        snap["MPI_Send"].total_us = 999.0
        assert a.total_us() == 1.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            MPIAccounting().record("MPI_Send", -1.0)

    def test_listener_invoked(self):
        a = MPIAccounting()
        seen = []
        a.add_listener(lambda routine, cost: seen.append((routine, cost)))
        a.record("MPI_Barrier", 4.0)
        assert seen == [("MPI_Barrier", 4.0)]
