"""Shared state backing one simulated MPI job.

A :class:`SimWorld` holds, for a job of P ranks:

* per-rank mailboxes (point-to-point message queues) with condition
  variables for blocking receives,
* a slot table implementing the collective exchange primitive on which all
  collectives (barrier/bcast/reduce/allgather/...) are built,
* per-rank :class:`~repro.mpi.accounting.MPIAccounting` ledgers and jitter
  RNG streams,
* an abort flag so that when one rank fails, ranks blocked in communication
  wake up and raise instead of deadlocking,
* optionally, a :class:`~repro.faults.injector.FaultInjector` plus a
  :class:`~repro.faults.policy.ResiliencePolicy`: dropped envelopes land in
  a per-destination retransmission buffer (recoverable) or a tombstone list
  (lost forever), receivers deduplicate injected duplicates by send
  sequence number, and per-rank
  :class:`~repro.faults.policy.ResilienceStats` count recovery activity.

Blocking has two owners.  :meth:`SimWorld.wait_mailbox` is the only wait on
a rank's mailbox condition: every receive, probe and request completion
passes it a poll, and it alone applies abort, the ``timeout_s`` deadline,
bounded retry rounds with recovery, the loss verdict, deadlock
registration and the pre-block hook (:meth:`SimWorld._before_block`).
:meth:`SimWorld.exchange` is the only wait on the collective slot
condition.  Retry rounds run only in a fault run, where a policy *and* an
injector are attached: a policy without an injector has nothing to
recover and is never exercised.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.analysis.sanitize import Sanitizer, SanitizerConfig
from repro.faults.policy import CommFailure, ResiliencePolicy, ResilienceStats
from repro.mpi.accounting import MPIAccounting
from repro.mpi.message import ANY_SOURCE, Envelope
from repro.mpi.network import NetworkModel
from repro.obs.runtime import ObsConfig, build_obs
from repro.util.rng import spawn_rngs
from repro.util.timebase import now_us
from repro.util.validation import check_positive

WORLD_CONTEXT = "world"


class SimMPIError(RuntimeError):
    """Raised on simulator-level failures (deadlock timeout, abort)."""


def _describe(detail: str | None, receives: list[tuple[str, int, int]]) -> str:
    """A wait's report text: its own detail, or its pending receives."""
    if detail is not None:
        return detail
    pends = ", ".join(f"(source={s}, tag={t})" for _, s, t in receives)
    return f"({len(receives)} pending recv(s): {pends})"


class _CollectiveSlot:
    """Rendezvous slot for one collective call instance."""

    __slots__ = ("values", "deposited", "readers", "ready")

    def __init__(self) -> None:
        self.values: dict[int, Any] = {}
        self.deposited = 0
        self.readers = 0
        self.ready = False


class SimWorld:
    """All cross-rank shared state for one simulated job."""

    def __init__(
        self,
        nranks: int,
        network: NetworkModel | None = None,
        seed: int | None = 0,
        timeout_s: float = 120.0,
        injector=None,
        policy: ResiliencePolicy | None = None,
        obs_config: ObsConfig | None = None,
        sanitize: SanitizerConfig | None = None,
        collectives: str | None = None,
    ) -> None:
        check_positive("nranks", nranks)
        check_positive("timeout_s", timeout_s)
        from repro.mpi.collectives import check_algorithm
        self.nranks = int(nranks)
        self.network = network or NetworkModel()
        #: collective-algorithm family: None (legacy rendezvous model),
        #: "flat" (rendezvous, honest linear cost), "hier" (tree algorithms)
        self.collectives = check_algorithm(collectives)
        self.timeout_s = float(timeout_s)
        self.rngs = spawn_rngs(seed, self.nranks)
        self.accounting = [MPIAccounting() for _ in range(self.nranks)]
        # Per-rank observability state (span tracer + metrics registry),
        # or None when tracing is off.
        self.obs = build_obs(self.nranks, obs_config)
        if self.obs is not None:
            # Flight recorders tap the MPI ledger: every modeled charge
            # lands in the rank's black-box ring.  (Listeners are runtime
            # wiring — MPIAccounting drops them on pickle, so mp-shm
            # workers re-wire in their own world constructions.)
            for r, ro in enumerate(self.obs):
                if ro.recorder is not None:
                    self.accounting[r].add_listener(ro.recorder.on_mpi)
        # Runtime correctness checkers (collective ordering, p2p hygiene,
        # deadlock and ghost-race detection), or None when off.
        self.sanitizer = (Sanitizer(self.nranks, sanitize, obs=self.obs)
                          if sanitize is not None else None)

        # Fault injection and recovery (both optional and independent: an
        # injector without a policy reproduces failures un-handled; a
        # policy without an injector is simply never exercised).
        self.injector = injector
        self.policy = policy
        self.resilience = [ResilienceStats() for _ in range(self.nranks)]

        # Point-to-point: mailbox per (context, dest rank); one condition
        # per dest rank shared by all contexts.
        self._mail_conds = [threading.Condition() for _ in range(self.nranks)]
        self._mailboxes: dict[tuple[str, int], list[Envelope]] = {}
        # Retransmission buffers / tombstones for injected drops, and the
        # consumed-seq sets receivers deduplicate against.  All three are
        # keyed like mailboxes and guarded by the destination's condition.
        self._dropped: dict[tuple[str, int], list[Envelope]] = {}
        self._tombstones: dict[tuple[str, int], list[Envelope]] = {}
        self._consumed: dict[tuple[str, int], set[int]] = {}

        # Collectives: one lock/condition for the whole slot table (P is
        # small; contention is negligible).
        self._coll_cond = threading.Condition()
        self._coll_slots: dict[tuple[str, int], _CollectiveSlot] = {}

        self._aborted = False
        self._abort_reason: str | None = None

    # ------------------------------------------------------------- abort
    def abort(self, reason: str) -> None:
        """Mark the job failed and wake every blocked rank."""
        self._aborted = True
        self._abort_reason = reason
        for cond in self._mail_conds:
            with cond:
                cond.notify_all()
        with self._coll_cond:
            self._coll_cond.notify_all()

    def _check_abort(self) -> None:
        if self._aborted:
            raise SimMPIError(f"simulated MPI job aborted: {self._abort_reason}")

    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def abort_reason(self) -> str | None:
        return self._abort_reason

    # ----------------------------------------------------- point-to-point
    def deliver(self, context: str, env: Envelope) -> None:
        """Place an envelope in the destination's mailbox and wake it."""
        if not (0 <= env.dest < self.nranks):
            raise ValueError(f"invalid destination rank {env.dest} (nranks={self.nranks})")
        cond = self._mail_conds[env.dest]
        with cond:
            self._mailboxes.setdefault((context, env.dest), []).append(env)
            if self.sanitizer is not None:
                # A registered wait by the destination is now stale: it must
                # re-check its mailbox before counting as deadlocked.
                self.sanitizer.notify_progress(env.dest)
            cond.notify_all()

    def deliver_batch(self, items: list[tuple[str, Envelope]]) -> None:
        """Deliver several envelopes for one destination rank under a
        single condition acquisition.

        The deposit path for coalesced wire frames (mp-shm backend):
        semantically identical to calling :meth:`deliver` per item —
        mailbox append order equals batch order, and matching is by seq
        anyway — but N frames cost one lock round-trip, one sanitizer
        progress bump and one ``notify_all``.
        """
        if not items:
            return
        dest = items[0][1].dest
        if not (0 <= dest < self.nranks):
            raise ValueError(f"invalid destination rank {dest} (nranks={self.nranks})")
        if any(env.dest != dest for _, env in items):
            raise ValueError("deliver_batch items must share one destination")
        cond = self._mail_conds[dest]
        with cond:
            for context, env in items:
                self._mailboxes.setdefault((context, dest), []).append(env)
            if self.sanitizer is not None:
                self.sanitizer.notify_progress(dest)
            cond.notify_all()

    def try_match(self, context: str, rank: int, source: int, tag: int) -> Envelope | None:
        """Non-blocking: pop the first mailbox envelope matching (source, tag)."""
        cond = self._mail_conds[rank]
        with cond:
            return self._pop_locked(context, rank, source, tag)

    def recv_waits_on(self, rank: int, source: int) -> set[int]:
        """Ranks whose progress could satisfy a receive from ``source``."""
        if source == ANY_SOURCE:
            return set(range(self.nranks)) - {rank}
        return {source}

    def match(self, context: str, rank: int, source: int, tag: int,
              routine: str = "MPI_Recv",
              charge: Callable[[str, float], None] | None = None) -> Envelope:
        """Blocking receive: pop the first envelope matching (source, tag),
        waiting in :meth:`wait_mailbox`.

        ``charge`` (the receiving communicator's ledger hook) marks a user
        receive, which in a fault run retries and recovers drops; the
        collective transport passes none, its envelopes are never dropped.
        ``routine`` names the wait in deadlock and timeout reports.
        """
        return self.wait_mailbox(
            rank, lambda: self._pop_locked(context, rank, source, tag),
            routine, f"(source={source}, tag={tag}, context={context!r})",
            [(context, source, tag)], charge)

    def _before_block(self) -> None:
        """Run once before a rank blocks on its mailbox (the mp-shm world
        puts its coalesced frames on the wire here)."""

    def wait_mailbox(self, rank: int, poll: Callable[[], Any], routine: str,
                     detail: str | None, receives: list[tuple[str, int, int]],
                     charge: Callable[[str, float], None] | None = None) -> Any:
        """The one blocking wait on ``rank``'s mailbox.

        Every blocking receive, probe and request completion ends here.
        ``poll`` runs under the mailbox lock and returns the result, or
        None to keep waiting.  ``receives`` holds the (context, source,
        tag) receives still pending: their sources are the deadlock
        detector's wait-for edges, and ``poll`` may shrink the list in
        place as some of several receives complete.  ``detail`` describes
        the wait in reports (None: list the pending receives).

        On every wake-up the loop checks the abort flag, then the hard
        ``timeout_s`` deadline.  A fault run (policy *and* injector
        attached, and a ``charge`` hook) adds the retry policy:

        * each ``policy.attempt_timeout_s(attempt)`` without a match is a
          counted retry round that recovers matching dropped envelopes
          from the retransmission buffers, with one ``MPI_Retransmit``
          charge per recovering round;
        * after ``max_attempts`` rounds recovery goes on at every wake-up
          (process backends deliver drop records asynchronously), and a
          pending receive whose message is tombstoned raises
          :class:`CommFailure`.  Without evidence of loss the peer is
          merely slow: only ``timeout_s`` bounds the wait.

        Fault runs also suspend deadlock registration: a receive may be
        blocked on a dropped-but-recoverable message the wait-for graph
        cannot see.  The wall time from the first retry round on is added
        to the enclosing span's ``retry_us``.
        """
        policy = self.policy
        fault_run = (charge is not None and policy is not None
                     and self.injector is not None)
        san = self.sanitizer
        register = san is not None and san.config.deadlock and not fault_run
        obs = self.obs[rank] if self.obs is not None else None
        cond = self._mail_conds[rank]
        self._before_block()
        now = time.monotonic()
        deadline = now + self.timeout_s
        next_round = now + policy.attempt_timeout_s(0) if fault_run else 0.0
        attempt = 0
        t_retry: float | None = None
        try:
            with cond:
                while True:
                    self._check_abort()
                    result = poll()
                    if result is not None:
                        return result
                    now = time.monotonic()
                    if now >= deadline:
                        raise SimMPIError(
                            f"rank {rank} timed out after {self.timeout_s}s "
                            f"in {routine} {_describe(detail, receives)} — "
                            "likely deadlock")
                    wait_s = min(deadline - now, 0.5)
                    if fault_run:
                        counted = attempt < policy.max_attempts
                        if counted and now < next_round:
                            wait_s = min(wait_s, next_round - now)
                        else:
                            if counted:
                                attempt += 1
                                self.resilience[rank].retry_rounds += 1
                                if t_retry is None:
                                    t_retry = now_us()
                                if obs is not None:
                                    obs.metrics.counter(
                                        "mpi_retry_rounds_total",
                                        "bounded receive retry rounds").inc()
                            recovered = sum(
                                self.recover_dropped(c, rank, s, t)
                                for c, s, t in receives)
                            if recovered:
                                charge("MPI_Retransmit",
                                       recovered * policy.retransmit_cost_us)
                            if counted:
                                next_round = now + policy.attempt_timeout_s(attempt)
                                continue
                            if recovered:
                                continue
                            self._fail_if_lost(rank, routine, receives, attempt)
                    if register:
                        san.enter_wait(
                            rank, routine, _describe(detail, receives),
                            set().union(*(self.recv_waits_on(rank, s)
                                          for _, s, _ in receives)))
                        san.check_deadlock(rank)
                        wait_s = min(wait_s, san.config.deadlock_poll_s)
                    cond.wait(wait_s)
        finally:
            if san is not None:
                san.exit_wait(rank)
            span = (obs.tracer.current()
                    if obs is not None and t_retry is not None else None)
            if span is not None:
                # The critical-path analyzer splits this out of the wait.
                span.attrs["retry_us"] = (
                    span.attrs.get("retry_us", 0.0) + (now_us() - t_retry))

    def _fail_if_lost(self, rank: int, routine: str,
                      receives: list[tuple[str, int, int]], attempt: int) -> None:
        """The loss verdict: raise :class:`CommFailure` for the first
        pending receive a tombstone matches."""
        for context, source, tag in receives:
            if self.lost_forever(context, rank, source, tag):
                self.resilience[rank].failures += 1
                if self.obs is not None:
                    self.obs[rank].metrics.counter(
                        "mpi_comm_failures_total",
                        "typed communication failures raised").inc()
                raise CommFailure(
                    f"rank {rank}: {routine} receive (source={source}, "
                    f"tag={tag}, context={context!r}) unmatched after "
                    f"{attempt} retry round(s); a matching message was "
                    "unrecoverably dropped")

    def _pop_locked(self, context: str, rank: int, source: int, tag: int) -> Envelope | None:
        box = self._mailboxes.get((context, rank))
        if not box:
            return None
        dedup = (self.policy is not None and self.policy.dedup
                 and self.injector is not None)
        while True:
            # Match by lowest send sequence number, not list position:
            # probes may re-deliver envelopes out of order, and MPI's
            # non-overtaking rule is defined on send order.
            best_i = -1
            for i, env in enumerate(box):
                if env.matches(source, tag) and (best_i < 0 or env.seq < box[best_i].seq):
                    best_i = i
            if best_i < 0:
                return None
            env = box.pop(best_i)
            if dedup:
                consumed = self._consumed.setdefault((context, rank), set())
                if env.seq in consumed:
                    # An injected duplicate of a message already received:
                    # discard and keep looking.
                    self.resilience[rank].deduplicated += 1
                    self.injector.note(rank, "mpi.deduplicated")
                    if self.obs is not None:
                        self.obs[rank].metrics.counter(
                            "mpi_deduplicated_total",
                            "injected duplicates discarded by receivers").inc()
                    continue
                consumed.add(env.seq)
            return env

    def unmark_consumed(self, context: str, rank: int, seq: int) -> None:
        """Forget that ``seq`` was consumed (probe paths re-deliver the
        envelope they popped, which must stay receivable)."""
        cond = self._mail_conds[rank]
        with cond:
            self._consumed.get((context, rank), set()).discard(seq)

    def pending_count(self, context: str, rank: int) -> int:
        """Number of undelivered envelopes waiting for ``rank`` (testing aid)."""
        cond = self._mail_conds[rank]
        with cond:
            return len(self._mailboxes.get((context, rank), []))

    def leftover_envelopes(self, rank: int) -> list[tuple[str, Envelope]]:
        """Every undelivered envelope still addressed to ``rank``, across
        all contexts (sanitizer finalize: unconsumed-message detection)."""
        cond = self._mail_conds[rank]
        out: list[tuple[str, Envelope]] = []
        with cond:
            for (context, dest), box in self._mailboxes.items():
                if dest == rank:
                    out.extend((context, env) for env in box)
        return out

    # ------------------------------------------------- drop/recovery store
    def stash_dropped(self, context: str, env: Envelope, recoverable: bool) -> None:
        """Record an injected drop: recoverable envelopes wait in the
        sender-side retransmission buffer; unrecoverable ones become
        tombstones (evidence of permanent loss for the receiver's bounded
        retry logic)."""
        cond = self._mail_conds[env.dest]
        store = self._dropped if recoverable else self._tombstones
        with cond:
            store.setdefault((context, env.dest), []).append(env)

    def recover_dropped(self, context: str, rank: int, source: int, tag: int) -> int:
        """Retransmit: move every matching buffered drop into the mailbox.

        Called by a receiver whose per-attempt timeout expired; models the
        sender-side retransmission a real resilient transport performs.
        Returns the number of recovered envelopes.
        """
        cond = self._mail_conds[rank]
        with cond:
            buf = self._dropped.get((context, rank))
            if not buf:
                return 0
            matched = [env for env in buf if env.matches(source, tag)]
            if not matched:
                return 0
            self._dropped[(context, rank)] = [e for e in buf if e not in matched]
            self._mailboxes.setdefault((context, rank), []).extend(matched)
            self.resilience[rank].recovered += len(matched)
            if self.injector is not None:
                for _ in matched:
                    self.injector.note(rank, "mpi.recovered")
            if self.obs is not None:
                self.obs[rank].metrics.counter(
                    "mpi_recovered_total",
                    "dropped envelopes recovered by retransmission").inc(len(matched))
            cond.notify_all()
            return len(matched)

    def lost_forever(self, context: str, rank: int, source: int, tag: int) -> bool:
        """Is a matching message known to be unrecoverably lost?"""
        cond = self._mail_conds[rank]
        with cond:
            stones = self._tombstones.get((context, rank), [])
            return any(env.matches(source, tag) for env in stones)

    # ---------------------------------------------------------- collective
    def exchange(self, context: str, seq: int, rank: int, value: Any,
                 routine: str = "MPI_Exchange") -> list[Any]:
        """All-to-all rendezvous: every rank deposits, all read all values.

        ``seq`` is the per-communicator collective call counter; because MPI
        requires all ranks to issue collectives in the same order, equal
        ``(context, seq)`` identifies the same logical collective on every
        rank.  Returns values ordered by rank.  The last reader frees the
        slot so the table stays bounded.  ``routine`` is diagnostic only
        (deadlock reports name the blocked operation).

        The one wait on the slot condition.  ``timeout_s`` bounds it hard.
        A fault run (policy *and* injector attached) also waits in
        ``policy.max_attempts`` rounds of ``policy.collective_timeout_s``,
        growing by the backoff factor: an incomplete round counts a
        collective retry, and exhausting the budget raises
        :class:`~repro.faults.policy.CommFailure`.
        """
        key = (context, seq)
        policy = self.policy
        bounded = policy is not None and self.injector is not None
        now = time.monotonic()
        deadline = now + self.timeout_s
        round_deadline = (now + min(policy.collective_timeout_s, self.timeout_s)
                          if bounded else deadline)
        attempt = 0
        san = self.sanitizer
        try:
            with self._coll_cond:
                slot = self._coll_slots.get(key)
                if slot is None:
                    slot = _CollectiveSlot()
                    self._coll_slots[key] = slot
                if rank in slot.values:
                    raise SimMPIError(
                        f"rank {rank} deposited twice into collective {key}; "
                        "collectives must be called in the same order on all ranks"
                    )
                slot.values[rank] = value
                slot.deposited += 1
                if san is not None:
                    # A deposit can unblock any waiter: registered waits on
                    # this rank are stale until re-checked.
                    san.notify_progress_all()
                if slot.deposited == self.nranks:
                    slot.ready = True
                    self._coll_cond.notify_all()
                while not slot.ready:
                    self._check_abort()
                    now = time.monotonic()
                    if now >= deadline:
                        raise SimMPIError(
                            f"rank {rank} timed out in collective {key}: only "
                            f"{slot.deposited}/{self.nranks} ranks arrived — likely "
                            "mismatched collective calls"
                        )
                    if now >= round_deadline:
                        attempt += 1
                        stats = self.resilience[rank]
                        stats.retry_rounds += 1
                        if attempt >= policy.max_attempts:
                            stats.failures += 1
                            raise CommFailure(
                                f"rank {rank}: collective {key} incomplete after "
                                f"{attempt} bounded round(s) "
                                f"({slot.deposited}/{self.nranks} ranks arrived)"
                            )
                        stats.collective_retries += 1
                        round_deadline = now + policy.collective_timeout_s * (
                            policy.backoff_factor ** attempt)
                        continue
                    wait_s = min(min(round_deadline, deadline) - now, 0.5)
                    if san is not None and san.config.deadlock:
                        # Waiting on the ranks that have not deposited yet.
                        missing = set(range(self.nranks)) - set(slot.values)
                        san.enter_wait(
                            rank, routine,
                            f"(collective #{seq}, context={context!r}, "
                            f"waiting on ranks {sorted(missing)})", missing)
                        san.check_deadlock(rank)
                        wait_s = min(wait_s, san.config.deadlock_poll_s)
                    self._coll_cond.wait(wait_s)
                result = [slot.values[r] for r in range(self.nranks)]
                slot.readers += 1
                if slot.readers == self.nranks:
                    del self._coll_slots[key]
                return result
        finally:
            if san is not None:
                san.exit_wait(rank)
