#!/usr/bin/env python3
"""Pin every paper output: the sha256 of each experiment's stdout.

    python3 golden/pin.py                     # regenerate all 11 digests
    python3 golden/pin.py fig8                # regenerate just these
    python3 golden/pin.py --check             # check all pinned outputs
    python3 golden/pin.py --check table1 fig8 # check just these

Each experiment runs as ``python -m repro <name>`` (model mode) in a fresh
interpreter, exactly as a reader would run it. ``--check`` exits 1 and
names every experiment whose output moved. Regenerate only when a change
is meant to move a paper output, and list the regeneration and its reason
in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PINNED = os.path.join(HERE, "paper_outputs.json")


def digest(name: str) -> str:
    """sha256 of ``python -m repro <name>``'s stdout; exits on a crash."""
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", name],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
    )
    if done.returncode != 0:
        sys.exit(f"{name}: exited {done.returncode}\n{done.stderr.decode()}")
    print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return hashlib.sha256(done.stdout).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare, do not write")
    parser.add_argument("names", nargs="*", help="experiments (default: all)")
    args = parser.parse_args(argv)
    pinned = {}
    if os.path.exists(PINNED):
        with open(PINNED) as handle:
            pinned = json.load(handle)
    if args.check:
        names = args.names or sorted(pinned)
        unknown = sorted(set(names) - set(pinned))
        if unknown:
            sys.exit(f"not pinned: {', '.join(unknown)}")
        moved = [name for name in names if digest(name) != pinned[name]]
        for name in moved:
            print(f"MISMATCH {name}: stdout differs from its pinned digest")
        return 1 if moved else 0
    sys.path.insert(0, SRC)
    from repro.cli import EXPERIMENTS

    if not args.names:
        pinned = {}
    for name in args.names or EXPERIMENTS:
        if name not in EXPERIMENTS:
            sys.exit(f"unknown experiment {name!r}")
        pinned[name] = digest(name)
    with open(PINNED, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINNED}: {len(pinned)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
