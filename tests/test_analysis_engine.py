"""Engine plumbing: symbol extraction, call-graph resolution, incremental
cache, the full-tree gate, RA012 unused-suppression detection, SARIF."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph, SymbolTable
from repro.analysis.engine import ENGINE_VERSION, analyze_paths
from repro.analysis.lint import Finding, make_context
from repro.analysis.sarif import render_sarif, to_sarif, validate_sarif
from repro.analysis.symbols import (ModuleSummary, extract_module,
                                    module_name_for)


def _summary(tmp_path: Path, name: str, src: str) -> ModuleSummary:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(src)
    ctx = make_context(path, source=src)
    return extract_module(path, src, ctx.tree, [], {})


# ----------------------------------------------------------------- symbols
class TestSymbols:
    def test_module_name_climbs_packages(self, tmp_path):
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
        mod = tmp_path / "pkg" / "sub" / "m.py"
        mod.write_text("")
        assert module_name_for(mod) == "pkg.sub.m"
        assert module_name_for(tmp_path / "pkg" / "sub" / "__init__.py") == "pkg.sub"

    def test_functions_methods_and_nested_defs(self, tmp_path):
        s = _summary(tmp_path, "m.py", (
            "class C:\n"
            "    def meth(self):\n"
            "        def inner():\n"
            "            pass\n"
            "        return inner\n"
            "def top():\n"
            "    pass\n"))
        names = {f.name for f in s.functions}
        assert names == {"C.meth", "C.meth.inner", "top"}
        inner = next(f for f in s.functions if f.name == "C.meth.inner")
        assert inner.parent == "C.meth"
        assert s.classes == {"C": ["meth"]}

    def test_call_depth_and_lock_context(self, tmp_path):
        s = _summary(tmp_path, "m.py", (
            "def f(comm, lock, xs):\n"
            "    comm.barrier()\n"
            "    for x in xs:\n"
            "        with lock:\n"
            "            comm.send(x, dest=0, tag=0)\n"))
        calls = {c.name: c for c in s.functions[0].calls()}
        assert calls["comm.barrier"].depth == 0
        assert calls["comm.barrier"].lock is None
        assert calls["comm.send"].depth == 1
        assert calls["comm.send"].lock == "lock"

    def test_import_alias_map_including_relative(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        s = _summary(tmp_path, "pkg/m.py", (
            "import time as t\n"
            "import numpy.random\n"
            "from time import perf_counter as pc\n"
            "from . import sibling\n"))
        assert s.aliases["t"] == "time"
        assert s.aliases["numpy"] == "numpy"
        assert s.aliases["pc"] == "time.perf_counter"
        assert s.aliases["sibling"] == "pkg.sibling"

    def test_summary_json_roundtrip(self, tmp_path):
        s = _summary(tmp_path, "m.py", (
            "def f(comm, rank):\n"
            "    if rank == 0:\n"
            "        req = comm.irecv(source=1, tag=0)\n"
            "        req.wait()\n"))
        back = ModuleSummary.from_json(json.loads(json.dumps(s.to_json())))
        assert back.to_json() == s.to_json()
        assert back.functions[0].posts == s.functions[0].posts


# --------------------------------------------------------------- callgraph
class TestCallGraph:
    def test_strict_resolution_module_local_and_self(self, tmp_path):
        table = SymbolTable([_summary(tmp_path, "m.py", (
            "def helper():\n"
            "    pass\n"
            "class C:\n"
            "    def a(self):\n"
            "        self.b()\n"
            "        helper()\n"
            "    def b(self):\n"
            "        pass\n"))])
        fn_a = table.functions["m.C.a"]
        resolved = {c.fq for site in fn_a.calls()
                    for c in table.resolve(fn_a, site)}
        assert resolved == {"m.C.b", "m.helper"}

    def test_cross_module_resolution_via_alias(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        sums = [
            _summary(tmp_path, "pkg/util.py", "def go():\n    pass\n"),
            _summary(tmp_path, "pkg/app.py", (
                "from pkg import util\n"
                "from pkg.util import go as jump\n"
                "def main():\n"
                "    util.go()\n"
                "    jump()\n")),
        ]
        table = SymbolTable(sums)
        main = table.functions["pkg.app.main"]
        resolved = [c.fq for site in main.calls()
                    for c in table.resolve(main, site)]
        assert resolved == ["pkg.util.go", "pkg.util.go"]

    def test_nested_def_reachable_from_parent(self, tmp_path):
        table = SymbolTable([_summary(tmp_path, "m.py", (
            "def driver():\n"
            "    def rank_main(comm):\n"
            "        comm.barrier()\n"
            "    return rank_main\n"))])
        graph = CallGraph(table, cha=True)
        assert "m.driver.rank_main" in graph.reachable(["m.driver"])

    def test_cha_resolves_all_same_named_methods(self, tmp_path):
        table = SymbolTable([_summary(tmp_path, "m.py", (
            "class A:\n"
            "    def run(self):\n"
            "        pass\n"
            "class B:\n"
            "    def run(self):\n"
            "        pass\n"
            "def main(obj):\n"
            "    obj.run()\n"))])
        main = table.functions["m.main"]
        site = next(main.calls())
        assert {c.fq for c in table.resolve(main, site, cha=True)} == {
            "m.A.run", "m.B.run"}
        assert table.resolve(main, site, cha=False) == []


# ------------------------------------------------------------------- cache
class TestIncrementalCache:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "a.py").write_text("def f():\n    import time\n    time.time()\n")
        cache = tmp_path / "cache.json"
        r1 = analyze_paths([tree], cache_path=cache)
        r2 = analyze_paths([tree], cache_path=cache)
        assert r1.stats["cache_misses"] == 1 and r1.stats["cache_hits"] == 0
        assert r2.stats["cache_hits"] == 1 and r2.stats["cache_misses"] == 0
        assert [f.format() for f in r1.findings] == [f.format() for f in r2.findings]

    def test_edited_file_invalidates_only_itself(self, tmp_path):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "a.py").write_text("def fa():\n    pass\n")
        (tree / "b.py").write_text("def fb():\n    pass\n")
        cache = tmp_path / "cache.json"
        analyze_paths([tree], cache_path=cache)
        (tree / "b.py").write_text("def fb():\n    return 1\n")
        r = analyze_paths([tree], cache_path=cache)
        assert r.stats["cache_hits"] == 1 and r.stats["cache_misses"] == 1

    def test_version_mismatch_drops_cache(self, tmp_path):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "a.py").write_text("def f():\n    pass\n")
        cache = tmp_path / "cache.json"
        analyze_paths([tree], cache_path=cache)
        obj = json.loads(cache.read_text())
        obj["version"] = ENGINE_VERSION + 1
        cache.write_text(json.dumps(obj))
        r = analyze_paths([tree], cache_path=cache)
        assert r.stats["cache_misses"] == 1

    def test_corrupt_cache_is_ignored(self, tmp_path):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "a.py").write_text("def f():\n    pass\n")
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        r = analyze_paths([tree], cache_path=cache)
        assert r.stats["cache_misses"] == 1
        assert json.loads(cache.read_text())["version"] == ENGINE_VERSION

    def test_cross_file_rules_stay_sound_on_cache_hits(self, tmp_path):
        """A cached helper plus an edited caller must still produce the
        interprocedural finding — the cross-file phase never caches."""
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "helper.py").write_text(
            "def pull(comm):\n    return comm.recv(source=0, tag=0)\n")
        (tree / "app.py").write_text("def main():\n    pass\n")
        cache = tmp_path / "cache.json"
        analyze_paths([tree], cache_path=cache)
        (tree / "app.py").write_text(
            "from helper import pull\n"
            "def main(comm, lock):\n"
            "    with lock:\n"
            "        pull(comm)\n")
        r = analyze_paths([tree], cache_path=cache)
        assert r.stats["cache_hits"] == 1
        assert [f.rule for f in r.findings] == ["RA011"]


# --------------------------------------------------------------- repo gate
class TestRepoGate:
    def test_full_tree_has_no_findings(self):
        """The CI gate: the whole tree is clean with no findings ledger."""
        result = analyze_paths(["src", "tests", "benchmarks", "examples"])
        assert result.findings == [], [f.format() for f in result.findings]


# ------------------------------------------------------------------- RA012
class TestUnusedSuppression:
    def test_unused_noqa_is_flagged(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("def g():\n    return 1  # ra: noqa[RA002]\n")
        r = analyze_paths([f])
        assert [x.rule for x in r.findings] == ["RA012"]
        assert "RA002" in r.findings[0].message

    def test_used_noqa_is_not_flagged(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("import time\ndef g():\n"
                     "    return time.time()  # ra: noqa[RA002]\n")
        r = analyze_paths([f])
        assert r.findings == []

    def test_noqa_inside_string_literal_is_ignored(self, tmp_path):
        """Fixture files embed '# ra: noqa' in strings; those are neither
        suppressions nor unused-suppression findings."""
        f = tmp_path / "a.py"
        f.write_text('FIXTURE = "x = 1  # ra: noqa[RA001]"\n')
        r = analyze_paths([f])
        assert r.findings == []

    def test_rules_subset_disables_ra012(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("def g():\n    return 1  # ra: noqa[RA002]\n")
        r = analyze_paths([f], rules=["RA002"])
        assert r.findings == []


# ------------------------------------------------------------------- SARIF
class TestSarif:
    def test_log_is_structurally_valid_and_complete(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("import time\ndef g():\n    time.time()\n")
        r = analyze_paths([f])
        log = to_sarif(r.findings, root=tmp_path)
        validate_sarif(log)
        (res,) = log["runs"][0]["results"]
        assert res["ruleId"] == "RA002"
        assert res["locations"][0]["physicalLocation"]["region"]["startLine"] == 3

    def test_rule_catalogue_covers_every_emittable_code(self, tmp_path):
        log = to_sarif([])
        ids = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
        assert ids == {"RA000", "RA001", "RA002", "RA003", "RA004", "RA005",
                       "RA006", "RA007", "RA008", "RA009", "RA010", "RA011",
                       "RA012"}

    def test_validator_rejects_broken_logs(self):
        good = to_sarif([Finding("RA002", "a.py", 3, 0, "m")])
        validate_sarif(good)
        for mutate in (
            lambda d: d.update(version="2.0.0"),
            lambda d: d["runs"][0]["results"][0].update(ruleId="NOPE"),
            lambda d: d["runs"][0]["results"][0].update(level="fatal"),
            lambda d: d["runs"][0]["results"][0]["locations"][0]
                ["physicalLocation"]["region"].update(startLine=0),
            lambda d: d["runs"][0]["results"][0]["locations"][0]
                ["physicalLocation"]["artifactLocation"].update(uri="/abs/a.py"),
        ):
            broken = json.loads(json.dumps(good))
            mutate(broken)
            with pytest.raises(ValueError):
                validate_sarif(broken)

    def test_render_round_trips_through_json(self):
        text = render_sarif([Finding("RA010", "a.py", 1, 2, "leak")])
        validate_sarif(json.loads(text))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
