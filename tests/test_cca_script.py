"""Assembly-script interface (the CCAFFEINE rc-file analog)."""

import pytest

from repro.cca import Component, ComponentRepository, Framework, Port
from repro.cca.ports import GoPort
from repro.cca.script import ScriptError, run_script


class EchoPort(Port):
    def echo(self, x):
        raise NotImplementedError


class Echo(Component, EchoPort):
    def __init__(self, prefix="E"):
        self.prefix = prefix

    def echo(self, x):
        return f"{self.prefix}:{x}"

    def set_services(self, sv):
        sv.add_provides_port(self, "echo", EchoPort)


class Driver(Component, GoPort):
    def set_services(self, sv):
        self.sv = sv
        sv.register_uses_port("echo", EchoPort)
        sv.add_provides_port(self, "go", GoPort)

    def go(self):
        return self.sv.get_port("echo").echo("hi")


@pytest.fixture
def fw():
    repo = ComponentRepository()
    repo.register(Echo)
    repo.register(Driver)
    return Framework(repository=repo)


GOOD = """
# a minimal assembly
instantiate Echo echo
instantiate Driver driver

connect driver echo echo echo
go driver go
"""


def test_full_script_runs(fw):
    result = run_script(fw, GOOD)
    assert result.go_result == "E:hi"
    assert result.created == ["echo", "driver"]
    assert result.commands == 4


def test_constructor_kwargs_parsed(fw):
    run_script(fw, "instantiate Echo e prefix='X'")
    assert fw.component("e").prefix == "X"


def test_bare_word_kwarg_is_string(fw):
    run_script(fw, "instantiate Echo e prefix=hello")
    assert fw.component("e").prefix == "hello"


def test_numeric_kwargs(fw):
    class Sized(Component):
        def __init__(self, n, scale=1.0):
            self.n, self.scale = n, scale

        def set_services(self, sv):
            pass

    fw.repository.register(Sized)
    run_script(fw, "instantiate Sized s n=4 scale=2.5")
    s = fw.component("s")
    assert s.n == 4 and s.scale == 2.5


def test_connect_default_provider_port(fw):
    run_script(fw, "instantiate Echo echo\ninstantiate Driver driver\n"
                   "connect driver echo echo")
    assert fw.go("driver") == "E:hi"


def test_disconnect_and_destroy(fw):
    run_script(fw, GOOD)
    run_script(fw, "disconnect driver echo\ndestroy echo")  # ra: noqa[RA003] echo is from GOOD
    assert "echo" not in fw.instance_names()


def test_comments_and_blanks_ignored(fw):
    result = run_script(fw, "\n  # only comments here\n\n")
    assert result.commands == 0


def test_unknown_command_reports_line(fw):
    with pytest.raises(ScriptError, match="line 2.*frobnicate"):
        run_script(fw, "# ok\nfrobnicate things")


def test_unknown_class_wrapped_with_context(fw):
    with pytest.raises(ScriptError, match="line 1.*KeyError"):
        run_script(fw, "instantiate Ghost g")


def test_usage_errors(fw):
    for bad in ("instantiate OnlyClass",
                "connect a b",
                "destroy",
                "go",
                "disconnect onlyone"):
        with pytest.raises(ScriptError):
            run_script(fw, bad)


def test_bad_kwarg_token(fw):
    with pytest.raises(ScriptError, match="key=value"):
        run_script(fw, "instantiate Echo e justaword")


def test_go_result_is_last(fw):
    text = (GOOD + "\ninstantiate Echo echo2 prefix='Z'\n"  # ra: noqa[RA003] extends GOOD
            "disconnect driver echo\nconnect driver echo echo2 echo\ngo driver")
    result = run_script(fw, text)
    assert result.go_result == "Z:hi"
