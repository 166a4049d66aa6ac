"""CLI entry point: ``python -m repro.analysis [paths...] [options]``.

Runs the whole-program engine (lexical rules + interprocedural flow
rules).  Exit status is 0 when no finding survives its line-level
``# ra: noqa[RAxxx]``, 1 otherwise (2 on usage errors), so
``python -m repro.analysis src tests benchmarks examples`` is the CI gate
as it stands.

Production flags::

    --sarif [PATH]       write SARIF 2.1.0 (default: stdout)
    --cache PATH         incremental cache keyed by file content hash
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import analyze_paths
from repro.analysis.report import human_report, json_report
from repro.analysis.sarif import render_sarif
from repro.util.atomicio import atomic_write_text


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Whole-program static analyzer for the repro codebase "
                    "(rules RA001-RA012; suppress with '# ra: noqa[RAxxx]').")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--format", choices=("human", "json"), default="human",
                        help="report format (default: human)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all, e.g. --rules RA002,RA004)")
    parser.add_argument("--sarif", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="emit SARIF 2.1.0 to PATH (or stdout with no "
                             "argument) instead of the human/JSON report")
    parser.add_argument("--cache", default=None, metavar="PATH",
                        help="incremental cache file (content-hash keyed)")
    args = parser.parse_args(argv)

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    rules = ([c.strip().upper() for c in args.rules.split(",") if c.strip()]
             if args.rules else None)

    try:
        findings = analyze_paths(paths, rules=rules,
                                 cache_path=args.cache).findings
    except FileNotFoundError as exc:
        print(f"repro.analysis: {exc}", file=sys.stderr)
        return 2

    if args.sarif is not None:
        sarif = render_sarif(findings)
        if args.sarif == "-":
            print(sarif, end="")
        else:
            atomic_write_text(args.sarif, sarif)
            print(f"repro.analysis: SARIF written to {args.sarif} "
                  f"({len(findings)} finding(s))")
    else:
        report = (json_report(findings) if args.format == "json"
                  else human_report(findings))
        print(report)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
