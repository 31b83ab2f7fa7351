"""OpenQASM subset parser/writer."""

import math

import numpy as np
import pytest

from repro.circuits import Circuit, parse_qasm, to_qasm
from repro.circuits.qasm import QasmError
from repro.utils.linalg import matrices_close

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'


def test_parse_basic():
    c = parse_qasm(HEADER + "h q[0];\ncx q[0],q[1];\n")
    assert c.n_qubits == 3
    assert [g.name for g in c] == ["h", "cx"]
    assert c[1].qubits == (0, 1)


def test_parse_pi_expressions():
    c = parse_qasm(HEADER + "rz(-3*pi/4) q[2];\nu3(pi/2,0,pi) q[0];\n")
    assert c[0].params[0] == pytest.approx(-3 * math.pi / 4)
    assert c[1].params == pytest.approx((math.pi / 2, 0.0, math.pi))


def test_parse_ignores_barrier_measure_creg():
    text = HEADER + "creg c[3];\nbarrier q[0],q[1];\nh q[0];\nmeasure q[0] -> c[0];\n"
    c = parse_qasm(text)
    assert len(c) == 1


def test_parse_strips_comments():
    c = parse_qasm(HEADER + "h q[0]; // a comment\n// whole line\n")
    assert len(c) == 1


def test_parse_rejects_unknown_gate():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "quux q[0];\n")


def test_parse_rejects_missing_qreg():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nh q[0];\n")


def test_parse_rejects_bad_register_name():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "h r[0];\n")


def test_parse_rejects_evil_expression():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "rz(__import__) q[0];\n")


@pytest.mark.parametrize(
    "expression", ["1e999", "-1e999", "0*1e999", "1/0", "pi**10000"],
    ids=["inf", "minus_inf", "nan", "zero_division", "overflow"],
)
def test_parse_rejects_non_finite_parameter(expression):
    with pytest.raises(QasmError, match="parameter"):
        parse_qasm(HEADER + f"rz({expression}) q[0];\n")


def test_parse_rejects_multiple_qregs():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "qreg r[2];\n")


def test_roundtrip_preserves_unitary():
    c = (
        Circuit(3, name="rt")
        .add("h", 0)
        .add("cx", 0, 1)
        .add("rz", 2, params=(0.37,))
        .add("ccx", 0, 1, 2)
        .add("u3", 1, params=(0.5, -1.0, 2.0))
    )
    again = parse_qasm(to_qasm(c))
    assert matrices_close(c.unitary(), again.unitary(), atol=1e-9)


def test_roundtrip_exact_structure():
    c = Circuit(2).add("cu1", 0, 1, params=(math.pi / 8,))
    again = parse_qasm(to_qasm(c))
    assert [g.name for g in again] == ["cu1"]
    assert again[0].params[0] == pytest.approx(math.pi / 8)


def test_workload_qasm_roundtrip():
    from repro.workloads import qft

    c = qft(5)
    again = parse_qasm(to_qasm(c))
    assert len(again) == len(c)
    assert matrices_close(c.unitary(), again.unitary(), atol=1e-8)
