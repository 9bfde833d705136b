#!/usr/bin/env python3
"""Randomized check that the boundary of every sampled complex squares to zero
and is homogeneous of degree -2.  The build checks homogeneity: a grid whose
build raises NotHomogeneous counts as a failure.

Usage: python scripts/dsquared_sweep.py --size 7 --count 50 --seed 1
"""
import argparse
import random
import sys
import time

from gridfloer import (
    NotHomogeneous,
    boundary_squares_to_zero,
    build_gc_prime,
    homology,
    random_grid,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=6)
    parser.add_argument("--count", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--homology", action="store_true", help="also compute homology of each sample"
    )
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    failures = 0
    total_entries = 0
    t0 = time.monotonic()
    for i in range(args.count):
        g = random_grid(args.size, rng)
        line = f"[{i:>3}] x={list(g.x_col)}"
        try:
            c = build_gc_prime(g)
        except NotHomogeneous:
            ok = False
        else:
            n_entries = sum(col.bit_count() for col in c.columns)
            total_entries += n_entries
            ok = boundary_squares_to_zero(c)
            line += f" entries={n_entries:>6}"
            if args.homology:
                summary = homology(c)
                line += f" free={summary.total_free()} torsion={len(summary.torsion_multiset())}"
        if not ok:
            failures += 1
            line += "  ** FAILED **"
        print(line)
    elapsed = time.monotonic() - t0
    print(
        f"\n{args.count} grids of size {args.size}: {failures} failures, "
        f"{total_entries} boundary entries, {elapsed:.2f}s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
