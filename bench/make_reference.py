"""Record the reference outputs of every operating point a seed can pick.

Run from the repository root, at a commit whose outputs are trusted:

    PYTHONPATH=src python3 bench/make_reference.py

Each operation runs once per size (full and tiny); its summary figures go
to ``bench/reference.json``. An operation that breaks an invariant or
acceptance bound stops the recording.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads


def main() -> int:
    out = workloads.BENCH_DIR / "out" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    reference = {}
    for size in workloads.SIZES:
        for name in workloads.WORKLOADS:
            done = {}
            for op in workloads.every_variant(name, size):
                if op.key is None:
                    continue
                d = out / op.key.replace("/", "_")
                d.mkdir()
                op.prepare(d)
                failures, stats = [], {}
                values = op.values(d, op.run(d), failures, stats)
                if values is not None:
                    failures += op.invariants(values, done)
                    done[op.spec] = values
                if failures:
                    print("\n".join(failures), file=sys.stderr)
                    return 1
                reference[op.key] = values
                print(op.key, flush=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
