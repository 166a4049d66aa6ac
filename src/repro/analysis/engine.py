"""The whole-program analysis engine.

Orchestrates the per-file lexical pass and the interprocedural flow rules
into one production-shaped pipeline::

    files -> (cache?) per-file extraction -> symbol table -> call graph
          -> flow rules -> suppressions (+RA012)

There is one gate: a run passes when no finding survives its line-level
``# ra: noqa[RAxxx]``.  Rules scope themselves from the file (RA002 and
RA007 skip pytest modules; RA007 also skips program entry points), so
the whole tree can be analyzed without a ledger of known findings.

Production affordances:

* **Incremental cache** (``--cache PATH``): per-file raw lexical findings
  and symbol summaries are stored keyed by the file's sha256 content hash
  and :data:`ENGINE_VERSION`; an unchanged file is never re-parsed.  The
  cross-file phases (symbol table, call graph, flow rules) are cheap and
  recomputed every run, so cache hits stay sound across file boundaries.
* **Unused-suppression detection** (RA012): a ``# ra: noqa`` line that
  suppressed nothing is itself a finding (only when the full rule set
  runs; a ``--rules`` subset would make every other suppression look
  unused).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.analysis.callgraph import CallGraph, SymbolTable
from repro.analysis.commcheck import run_flow_rules
from repro.analysis.lint import (Finding, _collect_noqa, apply_suppressions,
                                 iter_python_files, lint_tree, make_context)
from repro.analysis.symbols import ModuleSummary, extract_module, module_name_for
from repro.util.atomicio import atomic_write_text

#: bumped whenever extraction or rule semantics change: stale cache entries
#: are invalidated wholesale
ENGINE_VERSION = 2

#: rule codes produced only by the engine layer (not the lexical pass)
ENGINE_RULES = ("RA009", "RA010", "RA011", "RA012")


@dataclass
class EngineResult:
    """Outcome of one :func:`analyze_paths` run."""

    findings: list[Finding]
    summaries: list[ModuleSummary]
    table: SymbolTable
    graph: CallGraph
    stats: dict[str, int] = field(default_factory=dict)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_json(path: Path) -> dict[str, Any]:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        return obj if isinstance(obj, dict) else {}
    except (OSError, ValueError):
        return {}


# ------------------------------------------------------------------- cache
def _load_cache(path: Path | None) -> dict[str, Any]:
    if path is None:
        return {}
    obj = _load_json(path)
    if obj.get("version") != ENGINE_VERSION:
        return {}
    files = obj.get("files", {})
    return files if isinstance(files, dict) else {}


def _write_cache(path: Path, entries: dict[str, Any]) -> None:
    payload = {"version": ENGINE_VERSION, "files": entries}
    atomic_write_text(str(path), json.dumps(payload) + "\n")


def _summarize_file(path: Path, source: str) -> ModuleSummary:
    """Per-file extraction: lexical findings + symbol summary (cacheable)."""
    ctx = make_context(path, source=source)
    if isinstance(ctx, Finding):  # RA000: does not parse
        return ModuleSummary(
            module=module_name_for(path), path=str(path),
            raw_findings=[(ctx.rule, ctx.line, ctx.col, ctx.message)],
            noqa={line: sorted(codes)
                  for line, codes in _collect_noqa(source).items()},
            syntax_error=True)
    raw = lint_tree(ctx)
    return extract_module(
        path, source, ctx.tree,
        raw_findings=[(f.rule, f.line, f.col, f.message) for f in raw],
        noqa=ctx.noqa)


# ------------------------------------------------------------------ driver
def analyze_paths(paths: Iterable[str | Path],
                  rules: Sequence[str] | None = None,
                  cache_path: str | Path | None = None) -> EngineResult:
    """Run the whole-program engine over ``paths``.

    Returns the surviving findings (suppressions applied) plus the model
    itself (summaries, symbol table, call graph) for the crosscheck tests
    and the CLI.
    """
    selected = {c.upper() for c in rules} if rules is not None else None
    cache_file = Path(cache_path) if cache_path is not None else None
    cache = _load_cache(cache_file)
    new_cache: dict[str, Any] = {}
    stats = {"files": 0, "cache_hits": 0, "cache_misses": 0,
             "suppressed": 0}

    # --- per-file phase (cached)
    summaries: list[ModuleSummary] = []
    for path in iter_python_files(paths):
        stats["files"] += 1
        source = path.read_text(encoding="utf-8")
        digest = _sha256(source)
        entry = cache.get(str(path))
        if entry is not None and entry.get("sha") == digest:
            stats["cache_hits"] += 1
            summary = ModuleSummary.from_json(entry["summary"])
        else:
            stats["cache_misses"] += 1
            summary = _summarize_file(path, source)
        summaries.append(summary)
        new_cache[str(path)] = {"sha": digest, "summary": summary.to_json()}
    if cache_file is not None:
        _write_cache(cache_file, new_cache)

    # --- cross-file phase (always recomputed)
    table = SymbolTable(s for s in summaries if not s.syntax_error)
    graph = CallGraph(table, cha=True)
    flow = run_flow_rules(table)

    # --- merge, dedupe, filter by rule selection
    per_file: dict[str, list[Finding]] = {s.path: [] for s in summaries}
    seen_sites: set[tuple[str, str, int, int]] = set()
    for s in summaries:
        for rule, line, col, message in s.raw_findings:
            per_file[s.path].append(Finding(rule, s.path, line, col, message))
            seen_sites.add((rule, s.path, line, col))
    for f in flow:
        if (f.rule, f.path, f.line, f.col) in seen_sites:
            continue  # the lexical pass already owns this exact site
        per_file.setdefault(f.path, []).append(f)

    # --- suppressions + RA012
    noqa_of = {s.path: {line: set(codes) for line, codes in s.noqa.items()}
               for s in summaries}
    findings: list[Finding] = []
    for path, file_findings in per_file.items():
        noqa = noqa_of.get(path, {})
        kept, used = apply_suppressions(file_findings, noqa)
        stats["suppressed"] += len(file_findings) - len(kept)
        findings.extend(kept)
        if selected is None:  # RA012 is only sound for the full rule set
            for line in sorted(set(noqa) - used):
                codes = ",".join(sorted(noqa[line] - {"*"})) or "*"
                findings.append(Finding(
                    "RA012", path, line, 0,
                    f"unused suppression '# ra: noqa[{codes}]' — "
                    "no finding on this line; remove the comment"))
    if selected is not None:
        findings = [f for f in findings if f.rule in selected]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    stats["findings"] = len(findings)
    return EngineResult(findings=findings, summaries=summaries, table=table,
                        graph=graph, stats=stats)
