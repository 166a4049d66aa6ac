"""The RA rule catalogue: one good/bad fixture pair per rule, suppression,
reporters and the CLI contract of ``python -m repro.analysis``."""

import json

from repro.analysis import Finding, human_report, json_report, lint_file, lint_paths
from repro.analysis.__main__ import main


def _lint(tmp_path, source, rules=None, name="mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return lint_file(path, rules=rules)


def _codes(findings):
    return [f.rule for f in findings]


# --------------------------------------------------------------------- RA001
def test_ra001_flags_start_without_stop(tmp_path):
    findings = _lint(tmp_path, """
def go(profiler):
    profiler.start("flux")
    compute()
""", rules=["RA001"])
    assert _codes(findings) == ["RA001"]
    assert "'flux'" in findings[0].message
    assert "1 start(s) but 0 stop(s)" in findings[0].message
    assert "'go'" in findings[0].message


def test_ra001_balanced_and_context_manager_pass(tmp_path):
    findings = _lint(tmp_path, """
def go(profiler):
    profiler.start("flux")
    compute()
    profiler.stop("flux")

def ctx(profiler):
    with profiler.timer("flux"):
        compute()
""", rules=["RA001"])
    assert findings == []


def test_ra001_dynamic_name_is_ignored(tmp_path):
    findings = _lint(tmp_path, """
def go(profiler, name):
    profiler.start(name)
""", rules=["RA001"])
    assert findings == []


def test_ra001_counts_each_call_in_its_innermost_function(tmp_path):
    findings = _lint(tmp_path, """
def outer(tr):
    tr.start("setup")
    def run():
        tr.start("w")
    tr.stop("setup")
    return run
""", rules=["RA001"])
    assert _codes(findings) == ["RA001"]
    assert "'w'" in findings[0].message and "'run'" in findings[0].message


def test_ra001_bound_passed_or_returned_start_is_a_span_handle(tmp_path):
    findings = _lint(tmp_path, """
def spans(tr):
    sp = tr.start("a")
    tr.end(sp)
    tr.end(tr.start("b"))
    return tr.start("c")

def timers(p):
    p.start("bare")
    result = p.stop("kept")
""", rules=["RA001"])
    assert sorted(f.message.split(" on ")[0] for f in findings) == [
        "timer 'bare'", "timer 'kept'"]
    assert all("'timers'" in f.message for f in findings)


# --------------------------------------------------------------------- RA002
def test_ra002_flags_wall_clock_and_rng(tmp_path):
    findings = _lint(tmp_path, """
import time
import numpy as np

def stamp():
    return time.time()

def draw():
    return np.random.default_rng().normal()
""", rules=["RA002"])
    assert _codes(findings) == ["RA002", "RA002"]
    assert "time.time()" in findings[0].message
    assert "np.random.default_rng()" in findings[1].message


def test_ra002_monotonic_and_sanctioned_helpers_pass(tmp_path):
    findings = _lint(tmp_path, """
import time
from repro.util.rng import make_rng
from repro.util.timebase import now_us

def deadline():
    return time.monotonic() + 5.0

def draw(seed):
    return make_rng(seed).normal(), now_us()
""", rules=["RA002"])
    assert findings == []


def test_ra002_sanctioned_files_are_exempt(tmp_path):
    d = tmp_path / "repro" / "util"
    d.mkdir(parents=True)
    path = d / "timebase.py"
    path.write_text("import time\n\ndef now_us():\n    return time.time()\n")
    assert lint_file(path, rules=["RA002"]) == []


def test_ra002_flags_tainted_from_imports(tmp_path):
    findings = _lint(tmp_path, "from random import randint\n", rules=["RA002"])
    assert _codes(findings) == ["RA002"]
    assert "random.randint" in findings[0].message


# --------------------------------------------------------------------- RA003
def test_ra003_flags_dead_uses_port(tmp_path):
    findings = _lint(tmp_path, """
class Flux:
    def set_services(self, services):
        services.register_uses_port("states", object)
        services.register_uses_port("mesh", object)

    def go(self):
        self.services.get_port("mesh")
""", rules=["RA003"])
    assert _codes(findings) == ["RA003"]
    assert "'states'" in findings[0].message and "'Flux'" in findings[0].message


def test_ra003_dynamic_port_names_opt_out(tmp_path):
    findings = _lint(tmp_path, """
class Flux:
    def set_services(self, services):
        services.register_uses_port("states", object)

    def go(self, name):
        self.services.get_port(name)
""", rules=["RA003"])
    assert findings == []


def test_ra003_flags_script_connecting_unknown_instance(tmp_path):
    findings = _lint(tmp_path, '''
SCRIPT = """
instantiate FluxComponent flux
connect driver mesh flux flux  # driver never instantiated
go flux
"""
''', rules=["RA003"])
    assert _codes(findings) == ["RA003"]
    assert "'driver'" in findings[0].message


def test_ra003_well_formed_script_passes(tmp_path):
    findings = _lint(tmp_path, '''
SCRIPT = """
instantiate Driver driver
instantiate FluxComponent flux
connect driver flux flux flux
go driver
destroy driver
"""
''', rules=["RA003"])
    assert findings == []


# --------------------------------------------------------------------- RA004
def test_ra004_flags_mutable_defaults(tmp_path):
    findings = _lint(tmp_path, """
def a(x=[]):
    return x

def b(*, y={}):
    return y

def c(z=dict()):
    return z
""", rules=["RA004"])
    assert _codes(findings) == ["RA004", "RA004", "RA004"]


def test_ra004_none_default_passes(tmp_path):
    findings = _lint(tmp_path, """
def a(x=None, y=0, z=(1, 2)):
    return x or []
""", rules=["RA004"])
    assert findings == []


# --------------------------------------------------------------------- RA005
def test_ra005_flags_bare_and_swallowing_excepts(tmp_path):
    findings = _lint(tmp_path, """
def a():
    try:
        risky()
    except:
        handle()

def b():
    try:
        risky()
    except BaseException:
        log()

def c():
    try:
        risky()
    except Exception:
        pass
""", rules=["RA005"])
    assert _codes(findings) == ["RA005", "RA005", "RA005"]


def test_ra005_reraise_and_narrow_handlers_pass(tmp_path):
    findings = _lint(tmp_path, """
def a():
    try:
        risky()
    except BaseException:
        cleanup()
        raise

def b():
    try:
        risky()
    except (KeyError, ValueError):
        handle()

def c():
    try:
        risky()
    except Exception as exc:
        log(exc)
""", rules=["RA005"])
    assert findings == []


def test_ra005_bare_reraise_is_never_flagged(tmp_path):
    """The cleanup-then-propagate idiom swallows nothing — not even a bare
    ``except:`` or ``except Exception:`` is over-broad when every path ends
    in a bare ``raise``."""
    findings = _lint(tmp_path, """
def a():
    try:
        risky()
    except:
        rollback()
        raise

def b():
    try:
        risky()
    except Exception:
        raise

def c():
    try:
        risky()
    except BaseException:
        abort_cohort()
        raise
""", rules=["RA005"])
    assert findings == []


def test_ra005_raising_a_new_exception_is_not_a_bare_reraise(tmp_path):
    """``raise Wrapped(...)`` replaces the exception: a bare ``except:``
    around it still hides SystemExit/KeyboardInterrupt and stays flagged."""
    findings = _lint(tmp_path, """
def a():
    try:
        risky()
    except:
        raise RuntimeError("wrapped")
""", rules=["RA005"])
    assert _codes(findings) == ["RA005"]


# --------------------------------------------------------------------- RA006
def test_ra006_flags_mpi_call_in_nested_loop(tmp_path):
    findings = _lint(tmp_path, """
def sweep(comm, patches):
    for p in patches:
        for cell in p.cells:
            comm.send(cell, dest=0)
""", rules=["RA006"])
    assert _codes(findings) == ["RA006"]
    assert "comm.send()" in findings[0].message
    assert "2 nested" in findings[0].message


def test_ra006_single_loop_and_nested_function_pass(tmp_path):
    findings = _lint(tmp_path, """
def per_patch(comm, patches):
    for p in patches:
        comm.send(p, dest=0)

def outer(comm, patches):
    for p in patches:
        for c in p.cells:
            def helper():
                comm.barrier()  # fresh scope: not a per-cell call site
""", rules=["RA006"])
    assert findings == []


# --------------------------------------------------------------------- RA007
def test_ra007_flags_print_in_library_code(tmp_path):
    findings = _lint(tmp_path, """
def work(x):
    print("debug", x)
    return x + 1
""", rules=["RA007"])
    assert _codes(findings) == ["RA007"]
    assert "RankObs.log" in findings[0].message


def test_ra007_methods_and_lookalikes_pass(tmp_path):
    findings = _lint(tmp_path, """
def work(doc, pr):
    doc.print("not the builtin")
    _fingerprint(doc)
    return "print"  # the string is not a call
""", rules=["RA007"])
    assert findings == []


def test_ra007_sanctioned_reporters_are_exempt(tmp_path):
    """Program entry points may print: ``__main__.py`` by name, any other
    module by its top-level main guard."""
    guard = 'def show(x):\n    print(x)\n\nif __name__ == "__main__":\n    show(1)\n'
    for rel, source in (("pkg/__main__.py", "def show(x):\n    print(x)\n"),
                        ("repro/harness/report.py", guard),
                        ("repro/serve/loadgen.py", guard)):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        assert lint_file(path, rules=["RA007"]) == [], rel


def test_library_rules_are_scoped_by_file_name_and_main_guard(tmp_path):
    """RA002/RA007 run on library modules only; the file itself says so."""
    source = "import time\n\ndef work():\n    print(time.time())\n"
    guarded = source + '\nif __name__ == "__main__":\n    work()\n'
    nested = tmp_path / "tests" / "pkg"  # a directory name exempts nothing
    nested.mkdir(parents=True)
    for name, text, expected in (
            ("mod.py", source, ["RA002", "RA007"]),
            ("test_mod.py", source, []),
            ("conftest.py", source, []),
            ("tests/pkg/mod.py", source, ["RA002", "RA007"]),
            ("main_mod.py", guarded, ["RA002"])):
        path = tmp_path / name
        path.write_text(text)
        assert sorted(_codes(lint_file(path, rules=["RA002", "RA007"]))) \
            == expected, name


def test_ra007_noqa_suppression(tmp_path):
    findings = _lint(
        tmp_path, "def go():\n    print('x')  # ra: noqa[RA007]\n",
        rules=["RA007"])
    assert findings == []


def test_ra007_src_tree_is_clean():
    """The library itself obeys the rule it ships (satellite b)."""
    findings = [f for f in lint_paths(["src"]) if f.rule == "RA007"]
    assert findings == [], [f.format() for f in findings]


# --------------------------------------------------------------------- RA008
def _mpi_mod(tmp_path, source, rel="repro/mpi/mod.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def test_ra008_flags_pickle_dumps_in_mpi_layer(tmp_path):
    path = _mpi_mod(tmp_path, """
import pickle

def frame(env):
    return pickle.dumps(env)
""")
    findings = lint_file(path, rules=["RA008"])
    assert _codes(findings) == ["RA008"]
    assert "repro.mpi.codec" in findings[0].message


def test_ra008_codec_is_sanctioned_and_loads_passes(tmp_path):
    codec = _mpi_mod(tmp_path, """
import pickle

def encode(obj):
    return pickle.dumps(obj)
""", rel="repro/mpi/codec.py")
    assert lint_file(codec, rules=["RA008"]) == []

    reader = _mpi_mod(tmp_path, """
import pickle

def decode(blob):
    return pickle.loads(blob)
""")
    assert lint_file(reader, rules=["RA008"]) == []


def test_ra008_only_applies_inside_repro_mpi(tmp_path):
    findings = _lint(tmp_path, """
import pickle

def snapshot(state):
    return pickle.dumps(state)
""", rules=["RA008"])
    assert findings == []


def test_ra008_mpi_tree_is_clean():
    """The MPI layer itself serializes only through the codec."""
    findings = [f for f in lint_paths(["src/repro/mpi"]) if f.rule == "RA008"]
    assert findings == [], [f.format() for f in findings]


# --------------------------------------------------------------- suppression
def test_noqa_suppresses_single_code(tmp_path):
    findings = _lint(tmp_path, """
import time

def stamp():
    return time.time()  # ra: noqa[RA002]

def other(x=[]):
    return x
""")
    assert _codes(findings) == ["RA004"]


def test_noqa_without_codes_suppresses_all(tmp_path):
    findings = _lint(tmp_path, "def a(x=[]):  # ra: noqa\n    return x\n")
    assert findings == []


def test_noqa_for_other_code_does_not_suppress(tmp_path):
    findings = _lint(tmp_path, "def a(x=[]):  # ra: noqa[RA002]\n    return x\n")
    assert _codes(findings) == ["RA004"]


# ----------------------------------------------------------------- reporters
def test_reports_and_ordering(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import time\n\ndef a(x=[]):\n    return time.time()\n")
    findings = lint_paths([str(path)])
    assert _codes(findings) == ["RA004", "RA002"]  # sorted by line

    human = human_report(findings)
    assert f"{path}:3:" in human and "RA004" in human
    assert "repro.analysis: 2 finding(s) (RA002=1, RA004=1)" in human

    payload = json.loads(json_report(findings))
    assert payload["total"] == 2
    assert payload["counts"] == {"RA002": 1, "RA004": 1}
    assert payload["findings"][0]["rule"] == "RA004"
    assert payload["findings"][0]["path"] == str(path)


def test_human_report_clean():
    assert human_report([]) == "repro.analysis: no findings"


def test_finding_format():
    f = Finding("RA001", "x.py", 3, 7, "boom")
    assert f.format() == "x.py:3:7: RA001 boom"


# ----------------------------------------------------------------------- CLI
def test_cli_exit_codes_and_json(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def a():\n    return 1\n")
    assert main([str(clean)]) == 0
    assert "no findings" in capsys.readouterr().out

    dirty = tmp_path / "dirty.py"
    dirty.write_text("def a(x=[]):\n    return x\n")
    assert main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"RA004": 1}


def test_cli_rule_selection(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def a(x=[]):\n    return x\n")
    assert main([str(dirty), "--rules", "RA002"]) == 0
    capsys.readouterr()


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py")]) == 2
    assert "repro.analysis" in capsys.readouterr().err


def test_repo_source_tree_is_clean():
    """The acceptance gate: the shipped tree lints clean."""
    assert lint_paths(["src"]) == []
