"""Port introspection and Services registration rules."""

import pytest

from repro.cca import Component, Framework, Port, PortNotConnectedError
from repro.cca.ports import GoPort, port_methods


class EmptyPort(Port):
    pass


class MathPort(Port):
    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def _private(self):
        raise NotImplementedError


class MathImpl(MathPort):
    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


class Provider(Component):
    def set_services(self, sv):
        sv.add_provides_port(MathImpl(), "math", MathPort)


class User(Component):
    def set_services(self, sv):
        self.sv = sv
        sv.register_uses_port("math", MathPort)  # ra: noqa[RA003] tests fetch via user.sv


class TestPortMethods:
    def test_lists_public_methods(self):
        assert port_methods(MathPort) == ["add", "mul"]

    def test_excludes_private_and_base(self):
        assert "_private" not in port_methods(MathPort)
        assert "port_type_name" not in port_methods(MathPort)

    def test_empty_port(self):
        assert port_methods(EmptyPort) == []

    def test_non_port_rejected(self):
        with pytest.raises(TypeError):
            port_methods(int)

    def test_goport_declares_go(self):
        assert port_methods(GoPort) == ["go"]


class TestServices:
    def test_connected_port_resolves(self):
        fw = Framework()
        fw.create("p", Provider)
        user = fw.create("u", User)
        fw.connect("u", "math", "p", "math")
        assert user.sv.get_port("math").add(2, 3) == 5

    def test_unconnected_uses_port_raises(self):
        fw = Framework()
        user = fw.create("u", User)
        with pytest.raises(PortNotConnectedError, match="not connected"):
            user.sv.get_port("math")

    def test_unregistered_uses_port_raises(self):
        fw = Framework()
        user = fw.create("u", User)
        with pytest.raises(PortNotConnectedError, match="never registered"):
            user.sv.get_port("nope")

    def test_duplicate_provides_rejected(self):
        class Dup(Component):
            def set_services(self, sv):
                sv.add_provides_port(MathImpl(), "math", MathPort)
                sv.add_provides_port(MathImpl(), "math", MathPort)

        with pytest.raises(ValueError, match="already registered"):
            Framework().create("d", Dup)

    def test_duplicate_uses_rejected(self):
        class Dup(Component):
            def set_services(self, sv):
                sv.register_uses_port("math", MathPort)  # ra: noqa[RA003] duplicate under test
                sv.register_uses_port("math", MathPort)

        with pytest.raises(ValueError, match="already registered"):
            Framework().create("d", Dup)

    def test_provides_type_check(self):
        class Wrong(Component):
            def set_services(self, sv):
                sv.add_provides_port(MathImpl(), "go", GoPort)  # not a GoPort

        with pytest.raises(TypeError, match="does not implement"):
            Framework().create("w", Wrong)

    def test_uses_type_must_be_port_subclass(self):
        class Wrong(Component):
            def set_services(self, sv):
                sv.register_uses_port("x", int)  # ra: noqa[RA003] bad type under test

        with pytest.raises(TypeError):
            Framework().create("w", Wrong)

    def test_connect_type_mismatch_rejected(self):
        class GoUser(Component):
            def set_services(self, sv):
                sv.register_uses_port("runner", GoPort)  # ra: noqa[RA003] connect is under test

        fw = Framework()
        fw.create("p", Provider)
        fw.create("u", GoUser)
        with pytest.raises(TypeError, match="does not implement"):
            fw.connect("u", "runner", "p", "math")
