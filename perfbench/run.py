#!/usr/bin/env python3
"""Case-study benchmark: end-to-end run time with per-layer attribution.

    python3 perfbench/run.py --workload paper3 --seed 1 --seconds 55 --trace 0

runs the workload repeatedly for ``--seconds`` seconds (at least
``MIN_RUNS`` runs), checks every run's output, prints each metric by name
with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics, the tracing
overhead, and writes the last traced run's frames as a Chrome/Perfetto
trace under ``perfbench/out/``.  ``--workload all`` runs every workload
one at a time in this process.  The exit code is 0 only when every run
was correct.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: (name, unit) of every end-to-end metric reported with ``--trace 0``
END_TO_END = [
    ("run_s", "s"), ("setup_s", "s"), ("step_s_p50", "s"),
    ("step_s_p90", "s"), ("cell_updates_per_s", "cells/s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
]

#: (name, unit) of every per-layer metric reported with ``--trace 1``
PER_LAYER = [
    ("euler.states.calls", "count"), ("euler.states.self_s", "s"),
    ("euler.flux.calls", "count"), ("euler.flux.self_s", "s"),
    ("euler.rhs.self_s", "s"), ("euler.cell_updates", "count"),
    ("euler.cells_per_busy_s", "cells/s"), ("euler.bytes_computed", "B"),
    ("euler.riemann_iters", "count"),
    ("amr.box_intersections", "count"), ("amr.plan.calls", "count"),
    ("amr.plan.self_s", "s"), ("amr.ghost_update.self_s", "s"),
    ("amr.sync_down.self_s", "s"), ("amr.transfers", "count"),
    ("amr.transfer.self_s", "s"), ("amr.regrids", "count"),
    ("amr.regrid_s", "s"), ("amr.patches", "count"),
    ("mpi.p2p.calls", "count"), ("mpi.collective.calls", "count"),
    ("mpi.bytes", "B"), ("mpi.wait_s", "s"), ("mpi.collective_s", "s"),
    ("mpi.retries", "count"), ("mpi.modeled_ms", "ms"),
    ("mpi.shm.frames", "count"), ("mpi.shm.batches", "count"),
    ("mpi.shm.coalesced_ratio", "ratio"), ("mpi.shm.spins", "count"),
    ("mpi.shm.parks", "count"), ("mpi.shm.poll_interval_us", "us"),
    ("mpi.codec.encode_s", "s"), ("mpi.codec.decode_s", "s"),
    ("tau.timer.calls", "count"), ("tau.timer.self_s", "s"),
    ("tau.counters.self_s", "s"),
    ("perf.proxy.calls", "count"), ("perf.proxy.self_s", "s"),
    ("perf.mastermind.records", "count"), ("perf.mastermind.self_s", "s"),
    ("obs.spans", "count"), ("obs.spans_dropped", "count"),
    ("obs.collect_s", "s"),
    ("faults.checkpoint.writes", "count"), ("faults.checkpoint.bytes", "B"),
    ("faults.checkpoint_s", "s"),
    ("models.fits", "count"), ("models.fit_s", "s"),
    ("cca.compose_s", "s"),
    ("share.euler", "ratio"), ("share.amr", "ratio"), ("share.mpi", "ratio"),
    ("share.instrument", "ratio"), ("share.obs", "ratio"),
    ("share.faults", "ratio"), ("share.other", "ratio"),
    ("trace.overhead_pct", "%"),
]

#: counts that must repeat exactly from one traced run to the next
EXACT_COUNTS = ("amr.box_intersections", "mpi.p2p.calls", "mpi.bytes")

#: the layer shares of a traced run must sum to 1 within this
CLOSURE_TOL = 0.01

#: fewest runs per invocation (untraced and traced alternate with --trace 1)
MIN_RUNS = 3
MIN_RUNS_TRACED = 4


def _bootstrap() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC}\n")
        sys.exit(2)
    sys.path.insert(1, str(SRC))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}\n")
        sys.exit(2)


def compare_outputs(ref, rec) -> list[str]:
    """Problems of ``rec`` against the workload's first run."""
    from repro.faults.checkpoint import hierarchy_states_equal

    problems = []
    if len(rec.rank_states) != len(ref.rank_states):
        return ["rank count differs from the first run"]
    diff = [r for r, (a, b) in enumerate(zip(ref.rank_states, rec.rank_states))
            if not hierarchy_states_equal(a, b)]
    if diff:
        problems.append(f"final hierarchy differs from the first run on "
                        f"ranks {diff}")
    if rec.modeled_ms != ref.modeled_ms:
        problems.append(f"mpi.modeled_ms {rec.modeled_ms!r} != first run's "
                        f"{ref.modeled_ms!r}")
    if rec.cell_updates != ref.cell_updates:
        problems.append(f"euler.cell_updates {rec.cell_updates} != first "
                        f"run's {ref.cell_updates}")
    return problems


def layer_metrics(rec) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced run, and its attribution problems."""
    from layers import SHARE_LAYERS

    extras = rec.rank_extras
    leds = [e["ledger"] for e in extras]
    aux = [led["aux"] for led in leds if led.get("aux")]
    host = rec.host_ledger or {}
    n = len(leds)

    def total(table: str, *names: str, src=None) -> float:
        return sum(led[table].get(name, 0)
                   for led in (leds if src is None else src) for name in names)

    def mean_wall(name: str) -> float:
        return total("wall_s", name) / n

    m: dict[str, float] = {
        "euler.states.calls": total("calls", "euler.states"),
        "euler.states.self_s": total("self_s", "euler.states"),
        "euler.flux.calls": total("calls", "euler.flux"),
        "euler.flux.self_s": total("self_s", "euler.flux"),
        "euler.rhs.self_s": total("self_s", "euler.rhs"),
        "euler.cell_updates": rec.cell_updates,
        "euler.bytes_computed": sum(led["bytes_computed"] for led in leds),
        "euler.riemann_iters": sum(e["riemann_iters"] for e in extras),
        "amr.box_intersections": total("counts", "amr.box_intersections"),
        "amr.plan.calls": total("calls", "amr.plan"),
        "amr.plan.self_s": total("self_s", "amr.plan"),
        "amr.ghost_update.self_s": total("self_s", "amr.ghost_update"),
        "amr.sync_down.self_s": total("self_s", "amr.sync_down"),
        "amr.transfers": total("calls", "amr.transfer_in"),
        "amr.transfer.self_s": total("self_s", "amr.transfer",
                                     "amr.transfer_in"),
        "amr.regrids": max(led["calls"].get("amr.regrid", 0) for led in leds),
        "amr.regrid_s": mean_wall("amr.regrid"),
        "amr.patches": extras[0]["patches"],
        "mpi.p2p.calls": total("calls", "mpi.p2p"),
        "mpi.collective.calls": total("calls", "mpi.collective"),
        "mpi.bytes": total("counts", "mpi.bytes"),
        "mpi.wait_s": sum(led["wait_s"] for led in leds) / n,
        "mpi.collective_s": sum(led["collective_s"] for led in leds) / n,
        "mpi.retries": rec.retries,
        "mpi.modeled_ms": rec.modeled_ms,
        "mpi.codec.encode_s": total("self_s", "mpi.codec.encode",
                                    src=leds + aux),
        "mpi.codec.decode_s": total("self_s", "mpi.codec.decode",
                                    src=leds + aux),
        "tau.timer.calls": total("calls", "tau.timer"),
        "tau.timer.self_s": total("self_s", "tau.timer", "tau.timer_stop"),
        "tau.counters.self_s": total("self_s", "tau.counters"),
        "perf.proxy.calls": total("calls", "perf.proxy"),
        "perf.proxy.self_s": total("self_s", "perf.proxy"),
        "perf.mastermind.records": total("calls", "perf.mastermind_end"),
        "perf.mastermind.self_s": total("self_s", "perf.mastermind",
                                        "perf.mastermind_end"),
        "obs.spans": rec.obs_spans,
        "obs.spans_dropped": rec.obs_spans_dropped,
        "obs.collect_s": rec.obs_collect_s,
        "faults.checkpoint.writes": total("calls", "faults.checkpoint"),
        "faults.checkpoint.bytes": sum(e["ckpt_bytes"] for e in extras),
        "faults.checkpoint_s": mean_wall("faults.checkpoint"),
        "models.fits": host.get("calls", {}).get("models.fit", 0),
        "models.fit_s": host.get("wall_s", {}).get("models.build", 0.0),
        "cca.compose_s": total("incl_s", "cca.compose"),
    }
    for key in ("frames", "batches", "coalesced_ratio", "spins", "parks",
                "poll_interval_us"):
        m[f"mpi.shm.{key}"] = rec.shm.get(key, 0)
    euler_busy = total("layer_s", "euler")
    m["euler.cells_per_busy_s"] = (rec.cell_updates / euler_busy
                                   if euler_busy else 0.0)

    # Attribution: each layer's self time over the ranks' thread CPU time.
    # "other" is the rank time outside every wrapped entry point plus the
    # cca frames; an unbalanced frame stack or time booked to a layer
    # outside SHARE_LAYERS breaks the closure.
    problems = []
    cpu = sum(led["total_cpu_s"] for led in leds)
    layer = {name: total("layer_s", name) for name in SHARE_LAYERS}
    layer["other"] += sum(led["total_cpu_s"] - led["top_incl_s"] for led in leds)
    for name in SHARE_LAYERS:
        m[f"share.{name}"] = layer[name] / cpu
    closure = sum(m[f"share.{name}"] for name in SHARE_LAYERS)
    if abs(closure - 1.0) > CLOSURE_TOL:
        problems.append(f"layer shares sum to {closure:.4f}, not 1 "
                        f"(tolerance {CLOSURE_TOL})")
    negative = [name for name in SHARE_LAYERS if m[f"share.{name}"] < 0]
    if negative:
        problems.append(f"negative layer shares: {negative}")
    unbalanced = [led["rank"] for led in leds if led["open_frames"]]
    if unbalanced:
        problems.append(f"frames left open on ranks {unbalanced}")
    return m, problems


def calmest(runs: list) -> list:
    """The calmer half of ``runs`` (at least ``MIN_RUNS``): those during
    which the hypervisor gave the smallest share of this VM's CPU time to
    other guests.  On a shared host that steal comes in episodes lasting
    seconds to minutes and stretches a run's wall time, not its CPU time;
    it says nothing about the program, so runs it hit are left out of the
    timing medians (they are still checked)."""
    keep = min(len(runs), max(MIN_RUNS, (len(runs) + 1) // 2))
    return sorted(runs, key=lambda r: r.steal)[:keep]


def drop_spans(rec) -> None:
    for e in rec.rank_extras:
        e["ledger"]["spans"] = []
        if e["ledger"].get("aux"):
            e["ledger"]["aux"]["spans"] = []
    if rec.host_ledger:
        rec.host_ledger["spans"] = []


def write_trace(path: Path, rec) -> int:
    """The traced run's frames as Chrome trace-event JSON (Perfetto): one
    track per rank thread, one per mp-shm receiver thread, one for the
    launching thread; each frame names its parent frame on its track."""
    from repro.obs.export import validate_chrome_payload

    tracks = []  # (tid, label, rank, spans)
    for led in (e["ledger"] for e in rec.rank_extras):
        tracks.append((led["rank"], f"rank {led['rank']}", led["rank"],
                       led["spans"]))
        if led.get("aux"):
            tracks.append((1000 + led["rank"], f"rank {led['rank']} receiver",
                           led["rank"], led["aux"]["spans"]))
    if rec.host_ledger:
        tracks.append((-1, "launcher", -1, rec.host_ledger["spans"]))
    t0 = min((sp[2] for *_, spans in tracks for sp in spans), default=0.0)
    events = [
        {"name": name, "cat": name.split(".")[0], "ph": "X", "pid": 0,
         "tid": tid, "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
         "args": {"rank": rank, "frame": idx, "parent": parent}}
        for tid, _label, rank, spans in tracks
        for idx, name, start, end, parent in spans
    ]
    events.sort(key=lambda ev: ev["ts"])
    names = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
              "args": {"name": label}} for tid, label, _rank, _ in tracks]
    payload = {"traceEvents": names + events, "displayTimeUnit": "ms"}
    problems = validate_chrome_payload(payload)
    if problems:
        raise ValueError(f"invalid trace: {problems[:3]}")
    path.write_text(json.dumps(payload))
    return len(events)


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Serial reference, then timed runs of ``name`` for ``seconds``."""
    from layers import LayerTracer
    from measure import peak_rss_mb, run_once
    from workloads import WORKLOADS, serial_reference

    from repro.harness.casestudy import run_case_study

    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []

    t = time.perf_counter()
    serial = run_case_study(serial_reference(seed))
    serial_ref_s = time.perf_counter() - t
    if serial.results != [0]:
        problems.append(f"serial reference returned {serial.results}")

    tracer = LayerTracer() if trace else None
    min_runs = MIN_RUNS_TRACED if trace else MIN_RUNS
    records, walls, layer_runs = [], [], []
    attempted = failed = 0
    ref = ref_counts = None
    start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        attempted += 1
        gc.collect()  # every run starts from a collected heap
        t = time.perf_counter()
        try:
            if traced:
                tracer.install()
            try:
                rec = run_once(workload, seed, str(OUT),
                               tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
        except Exception as exc:  # a failed run is counted, not fatal
            failed += 1
            problems.append(f"run {attempted}: {type(exc).__name__}: {exc}")
        else:
            if ref is None:
                ref = rec
            rec.problems += compare_outputs(ref, rec)
            if rec is not ref:
                rec.rank_states = []
            if traced:
                lm, closure = layer_metrics(rec)
                rec.problems += closure
                counts = {k: lm[k] for k in EXACT_COUNTS}
                if ref_counts is None:
                    ref_counts = counts
                elif counts != ref_counts:
                    rec.problems.append(f"exact counts {counts} != first "
                                        f"traced run's {ref_counts}")
                if layer_runs:  # only the last traced run's frames are kept
                    drop_spans(layer_runs[-1][0])
                layer_runs.append((rec, lm))
            if rec.problems:
                failed += 1
                problems += [f"run {attempted}: {p}" for p in rec.problems]
            records.append(rec)
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if attempted >= min_runs and elapsed + statistics.median(walls) > seconds:
            break

    out = {"workload": name, "attempted": attempted, "failed": failed,
           "problems": problems, "serial_ref_s": serial_ref_s,
           "error_rate": failed / attempted, "metrics": {}, "notes": []}
    plain = [r for r in records if not r.traced]
    if plain:
        timed = calmest(plain)
        steps = [s for r in timed for s in r.step_s]
        p90 = statistics.quantiles(steps, n=10, method="inclusive")[8]
        out["metrics"].update({
            "run_s": statistics.median(r.run_s for r in timed),
            "setup_s": statistics.median(r.setup_s for r in timed),
            "step_s_p50": statistics.median(steps),
            "step_s_p90": p90,
            "cell_updates_per_s": statistics.median(
                r.cell_updates / r.run_s for r in timed),
            "cpu_s": statistics.median(r.cpu_s for r in timed),
            "peak_rss_mb": peak_rss_mb(),
        })
        out["notes"].append(
            f"{len(plain)} untraced runs, run_s "
            f"{[round(r.run_s, 3) for r in plain]}, cpu_s "
            f"{[round(r.cpu_s, 3) for r in plain]}, steal "
            f"{[round(r.steal, 3) for r in plain]}; timing medians over the "
            f"{len(timed)} with least steal; step times pooled: "
            f"{len(steps)} samples, {sum(s > p90 for s in steps)} beyond p90")
    if layer_runs:
        for key, _unit in PER_LAYER[:-1]:
            out["metrics"][key] = statistics.median(lm[key] for _, lm in layer_runs)
        traced_s = statistics.median(r.run_s for r, _ in layer_runs)
        out["metrics"]["trace.overhead_pct"] = (
            100.0 * (traced_s / out["metrics"]["run_s"] - 1.0))
        path = OUT / f"trace-{name}.json"
        nspans = write_trace(path, layer_runs[-1][0])
        dropped = sum(e["ledger"]["spans_dropped"]
                      for e in layer_runs[-1][0].rank_extras)
        out["notes"].append(f"{len(layer_runs)} traced runs; last one's "
                            f"{nspans} frames written to {path} "
                            f"({dropped} more not kept)")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="paper3, shm2-ckpt or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or all")
    wanted = PER_LAYER if args.trace else END_TO_END
    from measure import stop_helper_processes

    try:
        results = [bench_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    finally:
        stop_helper_processes()

    metrics: dict[str, dict] = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        print(f"== {res['workload']} (seed {args.seed}, trace {args.trace})")
        for key, unit in wanted:
            value = res["metrics"].get(key)
            print(f"  {key:28s} {value!r:>24} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        print(f"  {'error_rate':28s} {res['error_rate']!r:>24} ratio")
        print(f"  {'serial_ref_s':28s} {res['serial_ref_s']!r:>24} s "
              "(1 rank, uninstrumented; context, not gated)")
        for note in res["notes"]:
            print(f"  note: {note}")
        for problem in res["problems"]:
            print(f"  FAILED {problem}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    if any(v["value"] is None for v in metrics.values()):
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
