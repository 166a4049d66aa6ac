"""Domain-aware static linter driver.

The repo's measurement invariants — balanced TAU timer bracketing, seeded
randomness only through :mod:`repro.util.rng`, wall-clock reads only through
:mod:`repro.util.timebase`, MPI kept out of per-cell loops — are exactly the
"non-intrusive, identical-on-every-rank" properties the paper's methodology
depends on.  This module walks Python sources, runs the RA rule catalogue
(:mod:`repro.analysis.rules`) over each file's AST, and applies
``# ra: noqa[RAxxx]`` line suppressions.

Two entry layers:

* :func:`lint_file` / :func:`lint_paths` — the classic per-file lexical
  pass (suppressions applied), unchanged public contract.
* :func:`make_context` / :func:`lint_tree` / :func:`apply_suppressions` —
  the raw building blocks the whole-program engine
  (:mod:`repro.analysis.engine`) composes so it can track *which* noqa
  lines actually fired (unused-suppression detection) and cache raw
  findings per content hash.

Usage (library)::

    from repro.analysis import lint_paths
    findings = lint_paths(["src"])

or from the shell: ``python -m repro.analysis src/ --format=json``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

#: files in which the determinism escapes of RA002 are *defined* and hence
#: sanctioned (path suffix match, POSIX-style)
RA002_SANCTIONED = ("repro/util/timebase.py", "repro/util/rng.py")

#: the one module allowed to call ``pickle.dumps`` inside ``repro.mpi``:
#: RA008 confines wire-serialization decisions (and their per-frame cost)
#: to the codec
RA008_SANCTIONED = ("repro/mpi/codec.py",)

_NOQA_RE = re.compile(r"#\s*ra:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class FileContext:
    """Everything a rule needs to inspect one module."""

    path: Path
    source: str
    tree: ast.Module
    #: line -> set of suppressed rule codes ("*" suppresses all)
    noqa: dict[int, set[str]] = field(default_factory=dict)

    @property
    def posix(self) -> str:
        return self.path.as_posix()

    def is_sanctioned_for(self, suffixes: Sequence[str]) -> bool:
        return any(self.posix.endswith(s) for s in suffixes)

    @property
    def is_entry_point(self) -> bool:
        """``__main__.py``, or a module with a top-level main guard."""
        return self.path.name == "__main__.py" or any(
            isinstance(node, ast.If) and _is_main_guard(node.test)
            for node in self.tree.body)


def is_pytest_module(path: str | Path) -> bool:
    """``test_*.py`` or ``conftest.py``, judged by the file name alone.

    Library-only rules (RA002, RA007) skip these: tests and benchmarks
    time and print on purpose.  Only the base name counts, so a checkout
    that happens to sit under some ``tests/`` directory exempts nothing.
    """
    name = Path(path).name
    return name == "conftest.py" or (name.startswith("test_")
                                     and name.endswith(".py"))


def _is_main_guard(test: ast.expr) -> bool:
    """``__name__ == "__main__"``."""
    return (isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__"
            and len(test.ops) == 1 and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def _parse_noqa_comment(text: str) -> set[str] | None:
    m = _NOQA_RE.search(text)
    if not m:
        return None
    codes = m.group("codes")
    if codes is None:
        return {"*"}
    return {c.strip().upper() for c in codes.split(",") if c.strip()}


def _collect_noqa(source: str) -> dict[int, set[str]]:
    """Map line numbers to the rule codes suppressed on that line.

    Token-based: only real ``#`` comments count, so a noqa marker quoted
    inside a string literal (test fixtures embed whole modules as strings)
    neither suppresses findings nor registers as an unused suppression.
    Falls back to a line scan when the file does not tokenize (the rules
    themselves already degrade to an RA000 syntax-error finding).
    """
    out: dict[int, set[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                codes = _parse_noqa_comment(tok.string)
                if codes is not None:
                    out[tok.start[0]] = codes
    except (tokenize.TokenError, SyntaxError, IndentationError):
        out = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            codes = _parse_noqa_comment(text)
            if codes is not None:
                out[lineno] = codes
    return out


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            files.add(p)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {p}")
    return sorted(files)


def make_context(path: str | Path, source: str | None = None) -> FileContext | Finding:
    """Parse one module into a :class:`FileContext`.

    Returns an ``RA000`` :class:`Finding` instead when the file does not
    parse — callers surface it like any other finding.
    """
    path = Path(path)
    if source is None:
        source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding("RA000", str(path), exc.lineno or 1, exc.offset or 0,
                       f"syntax error: {exc.msg}")
    return FileContext(path=path, source=source, tree=tree,
                       noqa=_collect_noqa(source))


def lint_tree(ctx: FileContext, rules: Sequence[str] | None = None) -> list[Finding]:
    """Run the lexical rule catalogue; returns RAW findings (no noqa)."""
    from repro.analysis.rules import RULES

    selected = set(rules) if rules is not None else None
    findings: list[Finding] = []
    for code, rule in RULES.items():
        if selected is not None and code not in selected:
            continue
        findings.extend(rule.check(ctx))
    return findings


def apply_suppressions(
    findings: Iterable[Finding], noqa: dict[int, set[str]],
) -> tuple[list[Finding], set[int]]:
    """Drop findings suppressed by ``# ra: noqa`` lines.

    Returns ``(kept, used_lines)`` where ``used_lines`` is the set of noqa
    line numbers that suppressed at least one finding — the complement is
    the engine's unused-suppression (RA012) input.
    """
    kept: list[Finding] = []
    used: set[int] = set()
    for f in findings:
        codes = noqa.get(f.line)
        if codes is not None and ("*" in codes or f.rule in codes):
            used.add(f.line)
            continue
        kept.append(f)
    return kept, used


def lint_file(path: str | Path, rules: Sequence[str] | None = None) -> list[Finding]:
    """Run the rule catalogue over one file; returns unsuppressed findings."""
    ctx = make_context(path)
    if isinstance(ctx, Finding):
        return [ctx]
    kept, _ = apply_suppressions(lint_tree(ctx, rules), ctx.noqa)
    kept.sort(key=lambda f: (f.line, f.col, f.rule))
    return kept


def lint_paths(paths: Iterable[str | Path],
               rules: Sequence[str] | None = None) -> list[Finding]:
    """Lint every Python file under ``paths`` (files or directories)."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rules=rules))
    return findings
