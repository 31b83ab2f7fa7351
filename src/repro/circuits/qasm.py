"""OpenQASM 2.0 subset parser and writer.

Covers what the RevLib-derived benchmarks and our generators need: a single
quantum register, the gate set of :mod:`repro.circuits.gates`, ``pi``
arithmetic in parameters, and ``barrier``/``measure``/``creg`` statements
(parsed and ignored, since pulse compilation acts on the unitary part).
"""

from __future__ import annotations

import ast
import math
import re
from typing import List, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gates import GATE_SPECS, Gate

_HEADER_RE = re.compile(r"OPENQASM\s+2.0\s*;")
_QREG_RE = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]\s*;")
_CREG_RE = re.compile(r"creg\s+(\w+)\s*\[\s*(\d+)\s*\]\s*;")
_GATE_RE = re.compile(
    r"(\w+)\s*(?:\(([^)]*)\))?\s+([\w\[\]\s,]+);"
)
_ARG_RE = re.compile(r"(\w+)\s*\[\s*(\d+)\s*\]")


class QasmError(ValueError):
    """Raised on malformed or unsupported QASM input."""


class _ParamEvaluator(ast.NodeVisitor):
    """Safe evaluator for parameter expressions like ``-3*pi/4``."""

    _ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)

    def evaluate(self, text: str) -> float:
        """The expression's value; a QasmError unless it is finite
        (``1e999``, ``0*1e999``, ``1/0`` and ``pi**10000`` are refused)."""
        try:
            tree = ast.parse(text.strip(), mode="eval")
        except SyntaxError as exc:
            raise QasmError(f"bad parameter expression {text!r}") from exc
        try:
            value = self._eval(tree.body)
        except (ZeroDivisionError, OverflowError) as exc:
            raise QasmError(f"parameter {text!r}: {exc}") from exc
        if not math.isfinite(value):
            raise QasmError(f"parameter {text!r} is not finite: {value}")
        return value

    def _eval(self, node: ast.AST) -> float:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = self._eval(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._ALLOWED_BINOPS):
            left = self._eval(node.left)
            right = self._eval(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            return left**right
        raise QasmError(f"unsupported expression node {ast.dump(node)}")


_EVALUATOR = _ParamEvaluator()


def parse_qasm(text: str, name: str = "") -> Circuit:
    """Parse an OpenQASM 2.0 string into a :class:`Circuit`."""
    lines = _strip_comments(text)
    n_qubits = 0
    register = None
    body: List[Tuple[str, List[float], List[int]]] = []
    for line in lines:
        if not line or _HEADER_RE.match(line) or line.startswith("include"):
            continue
        m = _QREG_RE.match(line)
        if m:
            if register is not None:
                raise QasmError("multiple qregs are not supported")
            register, n_qubits = m.group(1), int(m.group(2))
            continue
        if _CREG_RE.match(line) or line.startswith(("barrier", "measure")):
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise QasmError(f"cannot parse line {line!r}")
        gate_name, params_text, args_text = m.groups()
        if gate_name not in GATE_SPECS:
            raise QasmError(f"unsupported gate {gate_name!r}")
        if register is None:
            raise QasmError("gate before qreg declaration")
        params = (
            [_EVALUATOR.evaluate(p) for p in params_text.split(",")]
            if params_text
            else []
        )
        qubits = []
        for arg in args_text.split(","):
            am = _ARG_RE.match(arg.strip())
            if not am or am.group(1) != register:
                raise QasmError(f"bad qubit argument {arg!r}")
            qubits.append(int(am.group(2)))
        body.append((gate_name, params, qubits))
    if register is None:
        raise QasmError("no qreg declaration found")
    circuit = Circuit(n_qubits, name=name)
    for gate_name, params, qubits in body:
        circuit.append(Gate(gate_name, tuple(qubits), tuple(params)))
    return circuit


def _strip_comments(text: str) -> List[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        out.append(line)
    return out


def to_qasm(circuit: Circuit) -> str:
    """Serialize a circuit to OpenQASM 2.0."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_qubits}];",
    ]
    for g in circuit:
        params = (
            "(" + ",".join(_format_param(p) for p in g.params) + ")"
            if g.params
            else ""
        )
        args = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{g.name}{params} {args};")
    return "\n".join(lines) + "\n"


def _format_param(p: float) -> str:
    return repr(float(p))
