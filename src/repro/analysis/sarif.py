"""SARIF 2.1.0 output for the analysis engine.

One run, one driver (``repro.analysis``), the full rule catalogue as
``reportingDescriptor`` entries, and one ``result`` per finding.  The
shape targets GitHub code scanning: relative POSIX artifact URIs and
1-based regions.  No ``partialFingerprints`` are emitted (the property is
optional in SARIF 2.1.0): the gate is a clean run, not a diff against
known findings.

:func:`validate_sarif` is a hermetic structural validator — this repo
cannot fetch the JSON schema from the network in CI, so the tests pin the
subset of SARIF 2.1.0 that code scanning actually consumes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.commcheck import ENGINE_RULE_SUMMARIES
from repro.analysis.lint import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro.analysis"
TOOL_URI = "https://github.com/repro/repro"

#: rules that are perf/hygiene smells rather than correctness errors
_WARNING_RULES = frozenset({"RA006", "RA012"})


def rule_catalogue() -> list[dict[str, Any]]:
    """The full RA catalogue as SARIF reportingDescriptors, sorted by id."""
    from repro.analysis.rules import RULES

    summaries: dict[str, str] = {"RA000": "file does not parse"}
    summaries.update({code: rule.summary for code, rule in RULES.items()})
    summaries.update(ENGINE_RULE_SUMMARIES)
    return [
        {
            "id": code,
            "name": code,
            "shortDescription": {"text": text},
            "defaultConfiguration": {
                "level": "warning" if code in _WARNING_RULES else "error",
            },
        }
        for code, text in sorted(summaries.items())
    ]


def _relative_uri(path: str, root: Path) -> str:
    p = Path(path)
    try:
        return p.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return p.as_posix()


def to_sarif(findings: Iterable[Finding],
             root: Path | None = None) -> dict[str, Any]:
    """Build the SARIF log object for a set of findings."""
    root = root if root is not None else Path.cwd()
    rules = rule_catalogue()
    index = {r["id"]: i for i, r in enumerate(rules)}
    results: list[dict[str, Any]] = []
    for f in findings:
        results.append({
            "ruleId": f.rule,
            "ruleIndex": index.get(f.rule, -1),
            "level": "warning" if f.rule in _WARNING_RULES else "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": _relative_uri(f.path, root)},
                    "region": {"startLine": max(f.line, 1),
                               "startColumn": f.col + 1},
                },
            }],
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": TOOL_NAME,
                "informationUri": TOOL_URI,
                "rules": rules,
            }},
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }


def render_sarif(findings: Iterable[Finding],
                 root: Path | None = None) -> str:
    return json.dumps(to_sarif(findings, root),
                      indent=2, sort_keys=False) + "\n"


_LEVELS = frozenset({"none", "note", "warning", "error"})


def validate_sarif(log: Any) -> None:
    """Structurally validate a SARIF 2.1.0 log; raises ValueError.

    Hermetic subset of the published schema: document header, driver and
    rule metadata, result/rule cross-references, physical locations with
    1-based regions.
    """
    def fail(msg: str) -> None:
        raise ValueError(f"invalid SARIF: {msg}")

    if not isinstance(log, dict):
        fail("top level must be an object")
    if log.get("version") != SARIF_VERSION:
        fail(f"version must be {SARIF_VERSION!r}, got {log.get('version')!r}")
    runs = log.get("runs")
    if not isinstance(runs, list) or not runs:
        fail("runs must be a non-empty array")
    for run in runs:
        driver = run.get("tool", {}).get("driver") if isinstance(run, dict) else None
        if not isinstance(driver, dict) or not isinstance(driver.get("name"), str):
            fail("every run needs tool.driver.name")
        rules = driver.get("rules", [])
        if not isinstance(rules, list):
            fail("tool.driver.rules must be an array")
        ids: list[str] = []
        for rule in rules:
            rid = rule.get("id") if isinstance(rule, dict) else None
            if not isinstance(rid, str):
                fail("every rule needs a string id")
            text = rule.get("shortDescription", {}).get("text")
            if not isinstance(text, str) or not text:
                fail(f"rule {rid} needs shortDescription.text")
            ids.append(rid)
        if len(set(ids)) != len(ids):
            fail("rule ids must be unique")
        results = run.get("results")
        if not isinstance(results, list):
            fail("run.results must be an array")
        for res in results:
            if not isinstance(res, dict):
                fail("every result must be an object")
            rid = res.get("ruleId")
            if not isinstance(rid, str) or rid not in ids:
                fail(f"result ruleId {rid!r} not in tool.driver.rules")
            ri = res.get("ruleIndex")
            if ri is not None and (not isinstance(ri, int)
                                   or not (0 <= ri < len(ids))
                                   or ids[ri] != rid):
                fail(f"result ruleIndex {ri!r} does not match ruleId {rid!r}")
            if res.get("level") not in _LEVELS:
                fail(f"result level {res.get('level')!r} invalid")
            if not isinstance(res.get("message", {}).get("text"), str):
                fail("every result needs message.text")
            locs = res.get("locations")
            if not isinstance(locs, list) or not locs:
                fail("every result needs at least one location")
            for loc in locs:
                phys = loc.get("physicalLocation", {}) if isinstance(loc, dict) else {}
                uri = phys.get("artifactLocation", {}).get("uri")
                if not isinstance(uri, str) or not uri or uri.startswith("/"):
                    fail(f"artifactLocation.uri must be a relative string, got {uri!r}")
                region = phys.get("region", {})
                line = region.get("startLine")
                if not isinstance(line, int) or line < 1:
                    fail(f"region.startLine must be a positive int, got {line!r}")
                col = region.get("startColumn")
                if col is not None and (not isinstance(col, int) or col < 1):
                    fail(f"region.startColumn must be >= 1, got {col!r}")
