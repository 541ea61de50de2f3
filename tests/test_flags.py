"""Strict parsing of the REPRO_* mode flags (repro.flags)."""

import pytest

from repro.core.kernels import vector_enabled
from repro.sim import Simulator
from repro.verify import verify_enabled

#: (flag, reader, value when unset) for every boolean flag.
GATES = [
    ("REPRO_FASTPATH", lambda: Simulator().fastpath, True),
    ("REPRO_VECTOR", vector_enabled, True),
    ("REPRO_VERIFY", verify_enabled, False),
]


@pytest.mark.parametrize("name,gate,default", GATES)
def test_gates_parse_zero_one_and_unset(monkeypatch, name, gate, default):
    monkeypatch.delenv(name, raising=False)
    assert gate() is default
    monkeypatch.setenv(name, "")
    assert gate() is default
    monkeypatch.setenv(name, "1")
    assert gate() is True
    monkeypatch.setenv(name, "0")
    assert gate() is False


@pytest.mark.parametrize("name,gate,default", GATES)
@pytest.mark.parametrize("value", ["off", "yes", "maybe", "false", " 1"])
def test_gates_reject_other_values(monkeypatch, name, gate, default,
                                   value):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=f"{name}.*{value!r}"):
        gate()


def test_audit_accepts_unset_zero_one_and_reverse(monkeypatch):
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    assert Simulator().auditor is None
    monkeypatch.setenv("REPRO_AUDIT", "0")
    assert Simulator().auditor is None
    monkeypatch.setenv("REPRO_AUDIT", "1")
    auditor = Simulator().auditor
    assert auditor is not None and not auditor.reverse_ties
    monkeypatch.setenv("REPRO_AUDIT", "reverse")
    auditor = Simulator().auditor
    assert auditor is not None and auditor.reverse_ties


@pytest.mark.parametrize("value", ["off", "on", "yes", "Reverse", " 1"])
def test_audit_rejects_other_values(monkeypatch, value):
    # REPRO_AUDIT=off used to switch the auditor *on*.
    monkeypatch.setenv("REPRO_AUDIT", value)
    with pytest.raises(ValueError, match=f"REPRO_AUDIT.*{value!r}"):
        Simulator()
