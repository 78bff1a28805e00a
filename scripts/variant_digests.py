"""SHA-256 of every data file written by the benchmark's CLI variants,
and of every norm-movie result.

Runs each CLI operation that ``bench.workloads.every_variant`` lists, for
every workload at the full and the tiny size, each into its own output
directory, and prints one line per data file:

    <variant key> <file name> <sha256>

``run_record.json`` is left out: it holds timestamps. Each norm-movie
variant (the library ``evolve`` on its periodic branch, which no CLI mode
runs) prints one line more, the digest of the repr of its run result, a
dict of Python floats whose repr round-trips their bits:

    <variant key> result <sha256>

Two checkouts give the same lines exactly when their data files and
norm-movie results have the same bits, so a change that must keep the
outputs is checked by diffing the lines of its tree against those of its
parent's:

    python3 scripts/variant_digests.py > new.txt
    python3 scripts/variant_digests.py --root ../parent > old.txt
    diff old.txt new.txt

Digests hold for one OpenBLAS kernel set: the barrier pair runs go
through OpenBLAS's ``eigh`` and products, and another kernel (another
host, or another ``OPENBLAS_CORETYPE``) may flip a last printed digit of
their files. Compare lines made under the same kernel, pinned on both
sides where the hosts may differ (``OPENBLAS_CORETYPE=Haswell`` runs on
every AVX2 host). The kernel in use is printed to stderr, so the lines
on stdout stay the same.

``--root`` names the checkout whose ``src/`` and ``bench/`` are run (by
default the one holding this script). The files go to a temporary
directory, or are kept under ``--keep DIR`` as ``DIR/<variant key>/``,
for comparing the moved digits of two trees file by file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and bench/ are run")
    parser.add_argument("--keep", type=Path,
                        help="keep the output files under this directory")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root), str(root / "src")]
    from bench import workloads

    from atomsqueeze import _blas

    print(f"OpenBLAS kernel: {_blas.describe()['corename']}", file=sys.stderr)

    with tempfile.TemporaryDirectory() as tmp:
        base = args.keep if args.keep is not None else Path(tmp)
        work = Path(tmp) / "configs"
        work.mkdir()
        for name in workloads.WORKLOADS:
            for size in ("full", "tiny"):
                for op in workloads.every_variant(name, size):
                    if isinstance(op, workloads.NormMovieOp):
                        result = repr(op.run(None)).encode()
                        print(op.key, "result", hashlib.sha256(result).hexdigest(),
                              flush=True)
                    if not isinstance(op, workloads.CliOp):
                        continue
                    out = base / op.key
                    out.mkdir(parents=True, exist_ok=True)
                    op.prepare(work)
                    if op.run(out) != 0:
                        raise SystemExit(f"{op.key}: the CLI run failed")
                    for path in sorted(out.iterdir()):
                        if path.name != "run_record.json":
                            digest = hashlib.sha256(path.read_bytes()).hexdigest()
                            print(op.key, path.name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
