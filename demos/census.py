"""Build census over the seeded corpus of generic eigenfunction fields.

Draws ``count`` fields from ``numpy.random.default_rng(seed)`` with the
corpus recipe ``draw_eigenfunction`` of ``tests/conftest.py``, builds the
Neumann complex of each at the default seed grid, and prints the draws that
fail, grouped by error type, then the totals of faces, cusps and confirmed
cusps over the draws that build.  Exits 1 when any draw fails to build.

    python demos/census.py 2 60
"""

import argparse
import os
import sys
from collections import defaultdict

import numpy as np

from neumann_domains import MorseField, build_complex
from neumann_domains.errors import NeumannDomainError

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from conftest import draw_eigenfunction  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    ap.add_argument("count", type=int)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    failed = defaultdict(list)
    built = faces = cusps = confirmed = 0
    for k in range(args.count):
        modes = draw_eigenfunction(rng)
        try:
            cx = build_complex(MorseField(modes))
        except NeumannDomainError as exc:
            failed[type(exc).__name__].append(k)
            continue
        built += 1
        faces += len(cx.faces)
        records = [c for f in cx.faces for c in f.cusps]
        cusps += len(records)
        confirmed += sum(c["confirmed"] for c in records)

    for name, draws in sorted(failed.items()):
        print(f"{name}: draws {draws}")
    print(f"seed {args.seed}: {built} of {args.count} draws build; "
          f"{faces} faces, {cusps} cusps, {confirmed} confirmed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
