#!/usr/bin/env python3
"""Enumerate the switch sites of a grid and verify the round-trip relation
nu' . nu = U at each one.

Usage: python scripts/band_relation_search.py trefoil5
       python scripts/band_relation_search.py path/to/diagram.grid
"""
import argparse
import pathlib
import sys
import time

from gridfloer import (
    BandMapChoice,
    U,
    band_map,
    build_gc_prime,
    chain_maps_equal,
    classify_band,
    compose_chain_maps,
    corpus_grid,
    corpus_names,
    find_switch_sites,
    identity_chain_map,
    link_topology,
    parse_grid,
    scale_chain_map,
)


def load(ref):
    if ref in corpus_names():
        return corpus_grid(ref)
    return parse_grid(pathlib.Path(ref).read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("grid", help="corpus name or grid file path")
    args = parser.parse_args(argv)

    g = load(args.grid)
    sites = find_switch_sites(g)
    print(f"n = {g.n}, {len(sites)} switch sites\n")
    if not sites:
        return 0

    src = build_gc_prime(g)
    u_id = scale_chain_map(identity_chain_map(src), U)
    before = link_topology(g)  # traced once for all sites
    bad = 0
    for site in sites:
        t0 = time.monotonic()
        band = classify_band(g, site, before)
        fwd = band_map(src, BandMapChoice(site, flavor="nu"))
        back = band_map(fwd.tgt, BandMapChoice(site, flavor="nu", direction="inverse"))
        ok = chain_maps_equal(compose_chain_maps(back, fwd), u_id)
        elapsed = time.monotonic() - t0
        bad += not ok
        print(
            f"  {site.letter} col={site.col + 1} row={site.row + 1}  "
            f"type {band.band_type} ({'split' if band.band_type == 'I' else 'merge'})  "
            f"round trip {'= U' if ok else '** MISMATCH **'}  {elapsed:.3f}s"
        )
    print(f"\n{len(sites) - bad}/{len(sites)} sites satisfy the relation")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
