"""Flow-aware communication rules over the interprocedural model.

These are the static twins of the PR-4 runtime sanitizers, run on the
symbol table / call graph built by :mod:`repro.analysis.callgraph`:

========  ==================================================================
RA009     static collective-order divergence: a rank-dependent branch whose
          two arms issue different collective sequences (interprocedurally
          expanded) — the static side of the collective-ordering tokens
RA010     unmatched/leaked p2p: an ``irecv`` whose request is discarded, or
          an ``isend``/``irecv`` request bound to a name that is never read
          again — the static side of the finalize-time leak check.  A
          *discarded* ``isend`` is the sanctioned fire-and-forget idiom
          (simulated sends complete at post) and is never flagged.
RA011     blocking MPI call while holding a lock (``with self._lock:``), or
          after queueing a coalesced frame without flushing first — either
          breaks the deadlock detector's liveness argument
RA002*    interprocedural determinism escapes: import-alias expansion
          (``import time as t; t.time()``) and calls into helpers that
          transitively reach a wall-clock/RNG primitive; like the
          lexical RA002 it reports nothing in pytest modules
RA006*    interprocedural MPI-in-hot-loop: a call, inside >= 2 nested
          loops, to a helper that transitively performs MPI
========  ==================================================================

All resolution here is **strict** (single candidate) so ambiguity never
manufactures a finding; the crosscheck's reachability uses CHA instead.
"""

from __future__ import annotations

from repro.analysis.callgraph import SymbolTable
from repro.analysis.lint import RA002_SANCTIONED, Finding, is_pytest_module
from repro.analysis.rules import _COMM_METHODS, _RA002_CALLS, _RA002_SUFFIXES
from repro.analysis.symbols import CallSite, FuncInfo, JsonNode

#: collective operations — order-sensitive across the whole cohort
COLLECTIVE_ATTRS = frozenset({
    "barrier", "bcast", "gather", "allgather", "scatter", "alltoall",
    "reduce", "allreduce", "scan", "dup",
})
#: comm-receiver operations that can block the calling rank
BLOCKING_ATTRS = frozenset({"send", "recv", "sendrecv", "probe"}) | COLLECTIVE_ATTRS
#: request-wait entry points (any receiver, incl. module functions)
WAIT_TAILS = frozenset({"wait", "waitall", "waitsome", "waitany"})
#: frame-coalescing queue/flush vocabulary (PR-9 transport)
QUEUE_TAILS = frozenset({"queue_frame", "_enqueue_frame", "enqueue_frame"})
FLUSH_TAILS = frozenset({"flush", "flush_frames", "_flush_dest", "flush_dest"})

#: summaries for the engine-only rules (SARIF rule metadata + docs)
ENGINE_RULE_SUMMARIES: dict[str, str] = {
    "RA009": "static collective-order divergence across rank-dependent arms",
    "RA010": "p2p request discarded or bound but never waited",
    "RA011": "blocking MPI call under a held lock or unflushed coalesce window",
    "RA012": "unused '# ra: noqa' suppression",
}

_MAX_DEPTH = 12


def _split(name: str) -> tuple[str, str]:
    recv, _, attr = name.rpartition(".")
    return recv, attr


def _commish(recv: str) -> bool:
    return "comm" in recv.rsplit(".", 1)[-1].lower()


def _is_collective(site: CallSite) -> bool:
    recv, attr = _split(site.name)
    return attr in COLLECTIVE_ATTRS and _commish(recv)


def _is_blocking(site: CallSite) -> bool:
    recv, attr = _split(site.name)
    if attr in BLOCKING_ATTRS and _commish(recv):
        return True
    return attr in WAIT_TAILS


def _is_comm_call(site: CallSite) -> bool:
    recv, attr = _split(site.name)
    return attr in _COMM_METHODS and _commish(recv)


class FlowChecker:
    """One pass of the flow rules over a built symbol table."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self._summary_memo: dict[str, tuple] = {}
        self._may_block_memo: dict[str, bool] = {}
        self._does_comm_memo: dict[str, bool] = {}
        self._taint_memo: dict[str, bool] = {}

    def run(self) -> list[Finding]:
        findings: list[Finding] = []
        for fn in self.table.functions.values():
            findings.extend(self.check_collective_divergence(fn))
            findings.extend(self.check_leaked_p2p(fn))
            findings.extend(self.check_blocking_hazards(fn))
            findings.extend(self.check_determinism_indirect(fn))
            findings.extend(self.check_comm_in_loop_indirect(fn))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings

    # ------------------------------------------------ RA009: collectives
    def _summary_of(self, fn: FuncInfo, stack: frozenset[str],
                    depth: int) -> tuple:
        """Structural collective summary: tokens, ('loop', sub), ('br', a, b)."""
        if fn.fq in self._summary_memo:
            return self._summary_memo[fn.fq]
        if fn.fq in stack or depth > _MAX_DEPTH:
            return ()
        out = self._summarize_ops(fn, fn.ops, stack | {fn.fq}, depth)
        if fn.fq not in stack:
            self._summary_memo[fn.fq] = out
        return out

    def _summarize_ops(self, fn: FuncInfo, ops: list[JsonNode],
                       stack: frozenset[str], depth: int) -> tuple:
        out: list = []
        for n in ops:
            k = n["k"]
            if k == "call":
                site = CallSite(name=n["name"], line=n["line"], col=n["col"],
                                depth=n["depth"], lock=n.get("lock"))
                if _is_collective(site):
                    out.append(_split(site.name)[1])
                    continue
                for callee in self.table.resolve(fn, site):
                    sub = self._summary_of(callee, stack, depth + 1)
                    out.extend(sub)
            elif k == "if":
                a = self._summarize_ops(fn, n["arms"][0], stack, depth)
                b = self._summarize_ops(fn, n["arms"][1], stack, depth)
                if a != b:
                    out.append(("br", a, b))
                else:
                    out.extend(a)
            elif k == "loop":
                sub = self._summarize_ops(fn, n["body"], stack, depth)
                if sub:
                    out.append(("loop", sub))
            elif k == "with":
                out.extend(self._summarize_ops(fn, n["body"], stack, depth))
        return tuple(out)

    @staticmethod
    def _flatten(summary: tuple) -> list[str]:
        flat: list[str] = []
        for el in summary:
            if isinstance(el, str):
                flat.append(el)
            elif el and el[0] == "loop":
                flat.extend(FlowChecker._flatten(el[1]))
            elif el and el[0] == "br":
                flat.extend(FlowChecker._flatten(el[1]))
                flat.extend(FlowChecker._flatten(el[2]))
        return flat

    def check_collective_divergence(self, fn: FuncInfo) -> list[Finding]:
        findings: list[Finding] = []

        def walk(ops: list[JsonNode]) -> None:
            for n in ops:
                k = n["k"]
                if k == "if":
                    if n.get("rank"):
                        a = self._summarize_ops(fn, n["arms"][0],
                                                frozenset({fn.fq}), 0)
                        b = self._summarize_ops(fn, n["arms"][1],
                                                frozenset({fn.fq}), 0)
                        if a != b:
                            fa, fb = self._flatten(a), self._flatten(b)
                            findings.append(Finding(
                                "RA009", fn.path, n["line"], 0,
                                f"rank-dependent branch in {fn.name!r} issues "
                                f"divergent collective sequences "
                                f"({fa or ['<none>']} vs {fb or ['<none>']}); "
                                "all ranks must meet the same collectives in "
                                "the same order"))
                    for arm in n["arms"]:
                        walk(arm)
                elif k in ("loop", "with"):
                    walk(n["body"])

        walk(fn.ops)
        return findings

    # --------------------------------------------------- RA010: p2p leaks
    def check_leaked_p2p(self, fn: FuncInfo) -> list[Finding]:
        findings: list[Finding] = []
        for post in fn.posts:
            if not _commish(post.recv):
                continue
            if post.ctx == "discard" and post.op == "irecv":
                findings.append(Finding(
                    "RA010", fn.path, post.line, post.col,
                    f"{post.recv}.irecv() request discarded in {fn.name!r}; "
                    "the message is never consumed and leaks at finalize — "
                    "bind the request and wait() it"))
            elif post.ctx == "bound" and post.names:
                if not any(name in fn.loads for name in post.names):
                    findings.append(Finding(
                        "RA010", fn.path, post.line, post.col,
                        f"{post.recv}.{post.op}() request bound to "
                        f"{post.names[0]!r} in {fn.name!r} but never used; "
                        "no path waits on it before function exit"))
        return findings

    # --------------------------------------- RA011: blocking-under-hazard
    def _may_block(self, fn: FuncInfo, stack: frozenset[str]) -> bool:
        if fn.fq in self._may_block_memo:
            return self._may_block_memo[fn.fq]
        if fn.fq in stack:
            return False
        result = False
        for site in fn.calls():
            if _is_blocking(site):
                result = True
                break
            if any(self._may_block(c, stack | {fn.fq})
                   for c in self.table.resolve(fn, site)):
                result = True
                break
        self._may_block_memo[fn.fq] = result
        return result

    def check_blocking_hazards(self, fn: FuncInfo) -> list[Finding]:
        findings: list[Finding] = []
        pending_queue = False
        for site in fn.calls():
            _, attr = _split(site.name)
            blocking = _is_blocking(site)
            # --- lock half
            if site.lock is not None:
                indirect = (not blocking
                            and any(self._may_block(c, frozenset())
                                    for c in self.table.resolve(fn, site)))
                if blocking or indirect:
                    how = (f"{site.name}()" if blocking
                           else f"{site.name}() (which may block)")
                    findings.append(Finding(
                        "RA011", fn.path, site.line, site.col,
                        f"blocking MPI call {how} while holding "
                        f"{site.lock!r} in {fn.name!r}; the deadlock "
                        "detector's liveness argument assumes no rank "
                        "blocks on the wire under a lock"))
            # --- coalescing flush-window half
            if attr in QUEUE_TAILS:
                pending_queue = True
            elif attr in FLUSH_TAILS:
                pending_queue = False
            elif pending_queue and blocking:
                findings.append(Finding(
                    "RA011", fn.path, site.line, site.col,
                    f"blocking call {site.name}() in {fn.name!r} with "
                    "coalesced frames still queued; call flush_frames() "
                    "before any operation that can block "
                    "(flush-before-blocking invariant)"))
                pending_queue = False
        return findings

    # ------------------------------------- RA002*: determinism indirection
    def _expanded(self, fn: FuncInfo, name: str) -> str:
        return self.table._expand(fn.module, name)

    @staticmethod
    def _is_primitive(expanded: str) -> bool:
        return (expanded in _RA002_CALLS
                or any(expanded == s or expanded.endswith("." + s)
                       for s in _RA002_SUFFIXES))

    def _sanctioned(self, fn: FuncInfo) -> bool:
        posix = fn.path.replace("\\", "/")
        return any(posix.endswith(s) for s in RA002_SANCTIONED)

    def _tainted(self, fn: FuncInfo, stack: frozenset[str]) -> bool:
        """Does ``fn`` (non-sanctioned) transitively reach a primitive?"""
        if fn.fq in self._taint_memo:
            return self._taint_memo[fn.fq]
        if fn.fq in stack or self._sanctioned(fn):
            return False
        result = False
        for site in fn.calls():
            if self._is_primitive(self._expanded(fn, site.name)):
                result = True
                break
            if any(self._tainted(c, stack | {fn.fq})
                   for c in self.table.resolve(fn, site)):
                result = True
                break
        self._taint_memo[fn.fq] = result
        return result

    def check_determinism_indirect(self, fn: FuncInfo) -> list[Finding]:
        if self._sanctioned(fn) or is_pytest_module(fn.path):
            return []
        findings: list[Finding] = []
        for site in fn.calls():
            expanded = self._expanded(fn, site.name)
            if expanded != site.name and self._is_primitive(expanded):
                findings.append(Finding(
                    "RA002", fn.path, site.line, site.col,
                    f"call to {site.name}() resolves to {expanded}() — a "
                    "determinism escape hidden behind an import alias; "
                    "route through repro.util.timebase / repro.util.rng"))
                continue
            if self._is_primitive(expanded):
                continue  # direct hit: the lexical RA002 already owns it
            for callee in self.table.resolve(fn, site):
                if callee.fq != fn.fq and self._tainted(callee, frozenset({fn.fq})):
                    findings.append(Finding(
                        "RA002", fn.path, site.line, site.col,
                        f"{site.name}() reaches a wall-clock/RNG primitive "
                        f"through helper {callee.fq}(); determinism escapes "
                        "cannot be laundered through indirection"))
                    break
        return findings

    # ------------------------------------------ RA006*: comm-in-loop
    def _does_comm(self, fn: FuncInfo, stack: frozenset[str]) -> bool:
        if fn.fq in self._does_comm_memo:
            return self._does_comm_memo[fn.fq]
        if fn.fq in stack:
            return False
        result = False
        for site in fn.calls():
            if _is_comm_call(site):
                result = True
                break
            if any(self._does_comm(c, stack | {fn.fq})
                   for c in self.table.resolve(fn, site)):
                result = True
                break
        self._does_comm_memo[fn.fq] = result
        return result

    def check_comm_in_loop_indirect(self, fn: FuncInfo) -> list[Finding]:
        findings: list[Finding] = []
        for site in fn.calls():
            if site.depth < 2 or _is_comm_call(site):
                continue  # direct hits are the lexical RA006's
            for callee in self.table.resolve(fn, site):
                if self._does_comm(callee, frozenset({fn.fq})):
                    findings.append(Finding(
                        "RA006", fn.path, site.line, site.col,
                        f"{site.name}() inside {site.depth} nested loops "
                        f"performs MPI via {callee.fq}; hoist out and batch "
                        "the exchange"))
                    break
        return findings


def run_flow_rules(table: SymbolTable) -> list[Finding]:
    """All interprocedural findings for one built symbol table."""
    return FlowChecker(table).run()
