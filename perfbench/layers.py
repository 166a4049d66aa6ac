"""Per-layer attribution by wrapping the public entry points of each layer.

Nothing under ``src/`` knows about this module: :meth:`LayerTracer.install`
replaces entry points on their classes and modules at run time and
:meth:`LayerTracer.uninstall` puts the originals back.  mp-shm rank
processes are forked while the wrappers are installed, so they inherit
them and ship their ledgers back through the run's ``extract`` hook.

Accounting happens in a per-thread :class:`RankLedger` that exists only
between :meth:`LayerTracer.begin_rank` and :meth:`LayerTracer.end_rank`
(or :meth:`LayerTracer.begin_host` in the launching thread); calls made
outside one run the original code untouched.  Each wrapped call is a
frame.  Its self time is its per-thread CPU time minus the CPU time of
the wrapped calls it made, so frames of GIL-serialised rank threads do
not double count; its wall time is kept for the blocking calls the
waiting metrics need.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: layers that the attribution shares cover; ``other`` is whatever rank
#: CPU time no wrapped entry point of the other layers accounts for
SHARE_LAYERS = ("euler", "amr", "mpi", "instrument", "obs", "faults", "other")

#: frames kept for the exported trace, shared evenly among a run's ranks
SPAN_BUDGET = 65536


def _nbytes(*arrays: Any) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _states_bytes(args: tuple, result: Any) -> int:
    # compute(self, U, mode) -> (WL, WR)
    return _nbytes(args[1], *result)


def _flux_bytes(args: tuple, result: Any) -> int:
    # compute(self, WL, WR, mode) -> F
    return _nbytes(args[1], args[2], result)


#: (module, attribute path, layer, metric name, kind[, bytes counter]).
#: kind "frame" times the call; "wait" also sums its wall time into
#: ``mpi.wait_s``; "coll" into ``mpi.collective_s``; "count" only counts
#: (for calls too frequent to time); "sum" adds the return value up.
ENTRY_POINTS: list[tuple] = [
    # repro.euler — the kernels and the integrator that drives them
    ("repro.euler.states", "StatesComponent.compute", "euler", "euler.states",
     "frame", _states_bytes),
    ("repro.euler.efm", "EFMFluxComponent.compute", "euler", "euler.flux",
     "frame", _flux_bytes),
    ("repro.euler.godunov", "GodunovFluxComponent.compute", "euler",
     "euler.flux", "frame", _flux_bytes),
    ("repro.euler.inviscid", "InviscidFluxComponent.flux_divergence",
     "euler", "euler.rhs", "frame"),
    ("repro.euler.rk2", "RK2Component.advance", "euler", "euler.advance",
     "frame"),
    ("repro.euler.rk2", "RK2Component.compute_dt", "euler", "euler.dt",
     "frame"),
    ("repro.euler.shockdriver", "ShockDriver.go", "euler", "euler.driver",
     "frame"),
    # repro.amr — plans, transfers, ghost updates, regrids
    ("repro.amr.box", "Box.intersection", "amr", "amr.box_intersections",
     "count"),
    ("repro.amr.ghost", "plan_same_level_exchange", "amr", "amr.plan",
     "frame"),
    ("repro.amr.hierarchy", "GridHierarchy._interlevel_ghost_phases", "amr",
     "amr.plan", "frame"),
    ("repro.amr.ghost", "Transfer.extract", "amr", "amr.transfer", "frame"),
    ("repro.amr.ghost", "Transfer.insert", "amr", "amr.transfer_in", "frame"),
    ("repro.amr.hierarchy", "GridHierarchy.ghost_update", "amr",
     "amr.ghost_update", "frame"),
    ("repro.amr.hierarchy", "GridHierarchy.sync_down", "amr", "amr.sync_down",
     "frame"),
    ("repro.amr.hierarchy", "GridHierarchy.regrid", "amr", "amr.regrid",
     "frame"),
    ("repro.amr.hierarchy", "GridHierarchy.init_level0", "amr", "amr.init",
     "frame"),
    ("repro.amr.hierarchy", "GridHierarchy.fill", "amr", "amr.init", "frame"),
    # repro.mpi — point-to-point posts, blocking waits, collectives, codec
    *[("repro.mpi.comm", f"SimComm.{m}", "mpi", "mpi.p2p", "frame")
      for m in ("send", "isend", "irecv", "iprobe")],
    *[("repro.mpi.comm", f"SimComm.{m}", "mpi", "mpi.p2p", "wait")
      for m in ("recv", "probe", "sendrecv")],
    *[("repro.mpi.request", f, "mpi", "mpi.wait", "wait")
      for f in ("waitsome", "waitall", "waitany", "SendRequest.wait",
                "RecvRequest.wait")],
    *[("repro.mpi.comm", f"SimComm.{m}", "mpi", "mpi.collective", "coll")
      for m in ("barrier", "bcast", "gather", "allgather", "scatter",
                "alltoall", "reduce", "allreduce", "scan", "dup")],
    ("repro.mpi.network", "payload_nbytes", "mpi", "mpi.bytes", "sum"),
    ("repro.mpi.codec", "encode", "mpi", "mpi.codec.encode", "frame"),
    ("repro.mpi.codec", "encode_batch", "mpi", "mpi.codec.encode", "frame"),
    ("repro.mpi.codec", "decode", "mpi", "mpi.codec.decode", "frame"),
    # repro.tau — timers, the measurement port, the PAPI-like counters
    ("repro.tau.profiler", "Profiler.start", "instrument", "tau.timer",
     "frame"),
    ("repro.tau.profiler", "Profiler.stop", "instrument", "tau.timer_stop",
     "frame"),
    ("repro.tau.profiler", "Profiler.charge", "instrument", "tau.timer_stop",
     "frame"),
    ("repro.tau.component", "_MeasurementImpl.query", "instrument",
     "tau.timer_stop", "frame"),
    ("repro.tau.hardware", "HardwareCounters.record_array_walk",
     "instrument", "tau.counters", "frame"),
    ("repro.tau.hardware", "HardwareCounters.record_flops", "instrument",
     "tau.counters", "frame"),
    # repro.perf — proxies (wrapped when generated) and the Mastermind
    ("repro.perf.mastermind", "Mastermind.begin_invocation", "instrument",
     "perf.mastermind", "frame"),
    ("repro.perf.mastermind", "Mastermind.end_invocation", "instrument",
     "perf.mastermind_end", "frame"),
    # repro.obs — span recording and metric updates inside the ranks
    *[("repro.obs.span", f"SpanTracer.{m}", "obs", "obs.record", "frame")
      for m in ("start", "end", "instant", "flow_out", "flow_in",
                "flow_collective")],
    *[("repro.obs.metrics", f"MetricsRegistry.{m}", "obs", "obs.record",
       "frame") for m in ("counter", "gauge", "histogram")],
    ("repro.obs.metrics", "Histogram.observe", "obs", "obs.record", "frame"),
    # repro.faults — checkpoint state capture and writes
    ("repro.faults.checkpoint", "Checkpointer.save", "faults",
     "faults.checkpoint", "frame"),
    ("repro.faults.checkpoint", "hierarchy_state", "faults",
     "faults.capture", "frame"),
    # repro.models — the Eq. 1-2 fits (run in the launching thread)
    ("repro.models.performance", "build_model", "models", "models.build",
     "frame"),
    ("repro.models.fits", "fit_family", "models", "models.fit", "frame"),
    # repro.cca — component creation, wiring and the GoPort call
    *[("repro.cca.framework", f"Framework.{m}", "other", "cca.framework",
       "frame") for m in ("create", "connect", "disconnect", "go")],
]

#: proxy methods are generated per run by ``make_proxy_port``; its result
#: gets its monitored methods wrapped as ``perf.proxy`` frames
PROXY_FACTORY = ("repro.perf.proxy", "make_proxy_port")


_thread_time = time.thread_time
_wall = time.perf_counter

# RankLedger.stats rows: [calls, self CPU s, inclusive CPU s, wall s, depth];
# inclusive and wall time add up only at the outermost (depth 0) frame of a
# name, so recursion (RK2 subcycling) is not double counted.
CALLS, SELF, INCL, WALL, DEPTH = range(5)


class RankLedger:
    """Frame accounting for one rank thread (or the launching thread)."""

    def __init__(self, rank: int, span_cap: int) -> None:
        self.rank = rank
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.wait_s = 0.0
        self.collective_s = 0.0
        self.bytes_computed = 0
        #: open frames: [child CPU seconds, span index or None]
        self.stack: list[list] = []
        #: inside a blocking (wait or collective) frame
        self.blocking = False
        self.spans: list[tuple | None] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        #: CPU time of outermost frames; the rest of the thread's time ran
        #: outside every wrapped entry point
        self.top_incl_s = 0.0
        self.cpu0 = _thread_time()

    def stat(self, name: str) -> list:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0.0, 0]
        return st

    def close(self, layer_of: dict[str, str]) -> dict:
        """Stop the rank clock; the picklable summary shipped to the parent."""
        total_cpu_s = _thread_time() - self.cpu0
        layer_s: dict[str, float] = defaultdict(float)
        for name, st in self.stats.items():
            layer_s[layer_of[name]] += st[SELF]
        return {
            "rank": self.rank,
            "calls": {k: st[CALLS] for k, st in self.stats.items()},
            "self_s": {k: st[SELF] for k, st in self.stats.items()},
            "incl_s": {k: st[INCL] for k, st in self.stats.items()},
            "wall_s": {k: st[WALL] for k, st in self.stats.items()},
            "layer_s": dict(layer_s),
            "counts": dict(self.counts),
            "wait_s": self.wait_s,
            "collective_s": self.collective_s,
            "bytes_computed": self.bytes_computed,
            "total_cpu_s": total_cpu_s,
            "top_incl_s": self.top_incl_s,
            "open_frames": len(self.stack),
            "spans": [(i, *sp) for i, sp in enumerate(self.spans)
                      if sp is not None],
            "spans_dropped": self.spans_dropped,
        }


def _run_frame(led: RankLedger, name: str, kind: str,
               nbytes: Callable | None, fn: Callable, args: tuple,
               kwargs: dict) -> Any:
    """Call ``fn`` as one frame of ``led``."""
    st = led.stat(name)
    stack = led.stack
    spans = led.spans
    sid = None
    if len(spans) < led.span_cap:
        sid = len(spans)
        spans.append(None)
    else:
        led.spans_dropped += 1
    parent = stack[-1][1] if stack else None
    blocking = kind != "frame" and not led.blocking
    if blocking:
        led.blocking = True
    frame = [0.0, sid]
    stack.append(frame)
    st[DEPTH] += 1
    result = None
    w0 = _wall()
    c0 = _thread_time()
    try:
        result = fn(*args, **kwargs)
        return result
    finally:
        c1 = _thread_time()
        w1 = _wall()
        stack.pop()
        incl = c1 - c0
        st[CALLS] += 1
        st[SELF] += incl - frame[0]
        if stack:
            stack[-1][0] += incl
        else:
            led.top_incl_s += incl
        st[DEPTH] -= 1
        if not st[DEPTH]:
            st[INCL] += incl
            st[WALL] += w1 - w0
        if blocking:
            led.blocking = False
            if kind == "wait":
                led.wait_s += w1 - w0
            else:
                led.collective_s += w1 - w0
        if nbytes is not None and result is not None:
            led.bytes_computed += nbytes(args, result)
        if sid is not None:
            spans[sid] = (name, w0, w1, parent)


class LayerTracer:
    """Installs the entry-point wrappers and hands out per-thread ledgers."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []
        #: ledger for helper threads of a rank process (the mp-shm ring
        #: receiver decodes frames there); never set in the thread backend,
        #: whose rank threads share one process
        self._aux: RankLedger | None = None
        #: metric name -> the layer its self time is booked to
        self.layer_of: dict[str, str] = {"cca.compose": "other",
                                         "perf.proxy": "instrument"}
        for entry in ENTRY_POINTS:
            self.layer_of[entry[3]] = entry[2]

    # ------------------------------------------------------------ ledgers
    def begin_rank(self, rank: int, nranks: int, own_process: bool) -> None:
        cap = max(512, SPAN_BUDGET // nranks)
        self._tls.ledger = RankLedger(rank, cap)
        if own_process:
            self._aux = RankLedger(rank, cap)

    def begin_host(self) -> None:
        """Account calls made by the launching thread (model fits)."""
        self._tls.ledger = RankLedger(-1, SPAN_BUDGET)

    def end_rank(self) -> dict | None:
        """Close this thread's ledger (and the helper-thread ledger)."""
        led = getattr(self._tls, "ledger", None)
        self._tls.ledger = None
        if led is None:
            return None
        out = led.close(self.layer_of)
        aux, self._aux = self._aux, None
        out["aux"] = aux.close(self.layer_of) if aux is not None else None
        return out

    def frame(self, name: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` as a frame of the current thread's ledger."""
        led = getattr(self._tls, "ledger", None)
        if led is None:
            return fn(*args)
        return _run_frame(led, name, "frame", None, fn, args, {})

    # ------------------------------------------------------------ install
    def install(self) -> None:
        if self._undo:
            raise RuntimeError("layer wrappers already installed")
        for entry in ENTRY_POINTS:
            module, path, _layer, name, kind = entry[:5]
            nbytes = entry[5] if len(entry) > 5 else None
            owner, attr, orig = _resolve(module, path)
            if kind == "count":
                wrapped = self._counter(name, orig)
            elif kind == "sum":
                wrapped = self._summer(name, orig)
            else:
                wrapped = self._framed(name, kind, nbytes, orig)
            self._replace(owner, attr, orig, wrapped)
        owner, attr, orig = _resolve(*PROXY_FACTORY)
        self._replace(owner, attr, orig, self._proxy_factory(orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _replace(self, owner: Any, attr: str, orig: Any, wrapped: Any) -> None:
        """Swap ``owner.attr``; a module-level function is also swapped in
        every ``repro`` module that imported it by name."""
        functools.update_wrapper(wrapped, orig)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or mod is None or not mod_name.startswith("repro"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    # ----------------------------------------------------------- wrappers
    def _framed(self, name: str, kind: str, nbytes: Callable | None,
                fn: Callable) -> Callable:
        tls = self._tls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            led = getattr(tls, "ledger", None) or self._aux
            if led is None:
                return fn(*args, **kwargs)
            return _run_frame(led, name, kind, nbytes, fn, args, kwargs)
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        tls = self._tls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            led = getattr(tls, "ledger", None)
            if led is not None:
                led.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _summer(self, name: str, fn: Callable) -> Callable:
        tls = self._tls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            out = fn(*args, **kwargs)
            led = getattr(tls, "ledger", None)
            if led is not None:
                led.counts[name] += int(out)
            return out
        return wrapper

    def _proxy_factory(self, factory: Callable) -> Callable:
        framed = self._framed

        def make_proxy_port(*args: Any, **kwargs: Any) -> Any:
            proxy = factory(*args, **kwargs)
            cls = type(proxy)
            for attr, fn in list(vars(cls).items()):
                if getattr(fn, "__qualname__", "").startswith("proxy."):
                    setattr(cls, attr, framed("perf.proxy", "frame", None, fn))
            return proxy
        return make_proxy_port


def _resolve(module: str, path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` for ``module:path``."""
    owner: Any = sys.modules.get(module) or __import__(module, fromlist=["_"])
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    return owner, attr, vars(owner)[attr]
