#!/usr/bin/env python3
"""Regenerate ``expected.json``: input digests and expected answers.

    python3 accbench/pin.py

Run it only when a change to the program is meant to change the
benchmark's inputs or answers; the diff of ``expected.json`` then shows
exactly what moved.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from repro.circuits.qasm import parse_qasm  # noqa: E402
from repro.service import CompileService, PulseStore  # noqa: E402
from repro.service.protocol import resolve_program  # noqa: E402

from accbench import inputs  # noqa: E402
from accbench.checks import GRAPE_FIELDS, MODEL_FIELDS  # noqa: E402
from accbench.run import EXPECTED  # noqa: E402

#: Generated programs pinned for the default seed: enough for a 60 s
#: remote-churn run (a quarter of its requests are generated programs).
QASM_PINNED = 160


def _answer(service: CompileService, circuit, fields) -> dict:
    report = service.submit_batch([circuit]).requests[0]
    values = {
        "n_groups": report.n_groups,
        "n_unique": report.n_unique,
        "overall_latency_ns": report.overall_latency,
        "gate_based_latency_ns": report.gate_based_latency,
    }
    return {name: values[name] for name in fields}


def main() -> int:
    named = sorted(set(inputs.WARM_PROGRAMS) | set(inputs.COLD_SEQUENCE))
    texts = [inputs.random_qasm(inputs.DEFAULT_SEED, i) for i in range(QASM_PINNED)]
    with tempfile.TemporaryDirectory() as root:
        # Fresh store per program: the model engine's answers do not depend
        # on what the store holds, and the GRAPE fields pinned here come
        # from the front end and the gate table alone.
        def fresh() -> CompileService:
            return CompileService(PulseStore(tempfile.mkdtemp(dir=root)), n_workers=1)

        model = {name: _answer(fresh(), resolve_program(name), MODEL_FIELDS) for name in inputs.WARM_PROGRAMS}
        for i, text in enumerate(texts):
            label = inputs.qasm_label(inputs.DEFAULT_SEED, i)
            model[label] = _answer(fresh(), parse_qasm(text, name=label), MODEL_FIELDS)
        grape = {name: _answer(fresh(), resolve_program(name), GRAPE_FIELDS) for name in inputs.COLD_SEQUENCE}
    pinned = {
        "digests": {
            "named": {name: inputs.sha256(inputs.named_qasm(name)) for name in named},
            "qasm_default": inputs.qasm_list_digest(texts),
            "qasm_default_count": QASM_PINNED,
        },
        "model": model,
        "grape": grape,
    }
    with open(EXPECTED, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED}: {len(model)} model answers, {len(grape)} GRAPE answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
