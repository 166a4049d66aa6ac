"""Correctness tooling: whole-program static analyzer + runtime MPI sanitizers.

Three layers (DESIGN.md sections 10 and 15):

* :mod:`repro.analysis.lint` / :mod:`repro.analysis.rules` — the per-file
  AST pass for the repo's measurement invariants (rules RA001–RA008),
  runnable as ``python -m repro.analysis src/``; suppress individual lines
  with ``# ra: noqa[RAxxx]``.
* :mod:`repro.analysis.engine` with :mod:`~repro.analysis.symbols`,
  :mod:`~repro.analysis.callgraph`, :mod:`~repro.analysis.commcheck` and
  :mod:`~repro.analysis.sarif` — the whole-program engine: project-wide
  symbol table, interprocedural call graph, flow-aware communication
  rules (RA009–RA011, interprocedural RA002/RA006), unused-suppression
  detection (RA012), SARIF 2.1.0 output and a content-hash incremental
  cache.  One gate: the full tree passes with no finding left
  unsuppressed.
* :mod:`repro.analysis.sanitize` — MUST-style runtime checkers (collective
  ordering, p2p leak/type hygiene, wait-for-graph deadlock detection,
  ghost-region race detection) enabled with ``sanitize=SanitizerConfig()``
  on :class:`~repro.mpi.runner.ParallelRunner`,
  :func:`~repro.cca.scmd.run_scmd` and
  :class:`~repro.harness.casestudy.CaseStudyConfig`.
"""

from repro.analysis.callgraph import CallGraph, SymbolTable
from repro.analysis.engine import EngineResult, analyze_paths
from repro.analysis.lint import Finding, iter_python_files, lint_file, lint_paths
from repro.analysis.report import human_report, json_report
from repro.analysis.rules import RULES
from repro.analysis.sanitize import (CollectiveMismatchError, DeadlockError,
                                     GhostGuard, GhostRaceError, LeakError,
                                     Sanitizer, SanitizerConfig,
                                     SanitizerError, SanitizerFinding)
from repro.analysis.sarif import render_sarif, to_sarif, validate_sarif

__all__ = [
    "Finding", "iter_python_files", "lint_file", "lint_paths",
    "human_report", "json_report", "RULES",
    "analyze_paths", "EngineResult", "SymbolTable", "CallGraph",
    "to_sarif", "render_sarif", "validate_sarif",
    "Sanitizer", "SanitizerConfig", "SanitizerError", "SanitizerFinding",
    "DeadlockError", "CollectiveMismatchError", "GhostRaceError",
    "LeakError", "GhostGuard",
]
