"""Command-line front end: homology reports, movie composition, site
listings, and the invariant verification suites.

Exit codes: 0 success, 1 check failed, 2 parse error, 3 state cap exceeded,
4 invalid move sequence, 5 unknown verify suite.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .algebra import (
    GradedModuleSummary,
    PolyF2U,
    U,
    chain_maps_equal,
    compose_chain_maps,
    homology,
    identity_chain_map,
    scale_chain_map,
)
from .cobordism import (
    BandMapChoice,
    Movie,
    band_map,
    compose_movie,
    disk_destab_map,
    disk_stab_map,
    parse_movie,
    quasi_destab_map,
    quasi_stab_map,
    serialize_movie,
    verify_commutation,
)
from .complexes import DEFAULT_STATE_CAP, build_gc_prime, verify_curvature
from .corpus import corpus_grids
from .errors import (
    CapExceeded,
    ChainMapViolation,
    GridFloerError,
    MoveSequenceInvalid,
    NotHomogeneous,
    ParseError,
    UnknownSuite,
)
from .grids import (
    GridDiagram,
    LinkTopology,
    SwitchSite,
    classify_band,
    find_switch_sites,
    link_topology,
    parse_grid,
    random_grid,
    same_letter_neighbors,
    serialize_grid,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_MOVE = 4
EXIT_SUITE = 5
# an error exits with the code of its nearest listed class (AnchorMismatch
# with EXIT_MOVE), any other with EXIT_FAIL
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    CapExceeded: EXIT_CAP,
    MoveSequenceInvalid: EXIT_MOVE,
    UnknownSuite: EXIT_SUITE,
}


def _poly_str(p: PolyF2U) -> str:
    return repr(p).replace(" ", "")


def _print_summary_table(summary: GradedModuleSummary) -> None:
    print(f"{'grading':>8} {'free':>6}  torsion")
    for row in summary.to_json_rows():
        torsion = (
            " ".join(f"U^{k}" for k in row["torsion"]) if row["torsion"] else "-"
        )
        print(f"{row['grading_doubled']:>8} {row['free_rank']:>6}  {torsion}")


def _print_json(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    print()


def _grid_json(g: GridDiagram) -> dict:
    return {"n": g.n, "o": list(g.o_col), "x": list(g.x_col)}


def _read_text(path: str) -> str:
    """A grid file or movie script, without a leading byte-order mark;
    bytes that are not UTF-8 are a parse error."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from exc


def _read_grid(path: str) -> GridDiagram:
    return parse_grid(_read_text(path))


def cmd_homology(args: argparse.Namespace) -> int:
    g = _read_grid(args.grid)
    c = build_gc_prime(g, args.cap)
    summary = homology(c)
    if args.json:
        _print_json(
            {"n": g.n, "generators": len(c.basis), "homology": summary.to_json_rows()}
        )
    else:
        print(f"grid: n={g.n}, {len(c.basis)} generators")
        _print_summary_table(summary)
    return EXIT_OK


def cmd_movie(args: argparse.Namespace) -> int:
    g = _read_grid(args.grid)
    result = compose_movie(parse_movie(_read_text(args.script), g), args.cap)
    degree = result.degree
    matrix = [[_poly_str(p) for p in row] for row in result.induced]
    if args.json:
        _print_json(
            {
                "final_grid": _grid_json(result.total.tgt.grid),
                "degree": degree,
                "source_homology": result.src_presentation.summary.to_json_rows(),
                "target_homology": result.tgt_presentation.summary.to_json_rows(),
                "induced": matrix,
            }
        )
    else:
        print("final diagram:")
        print(serialize_grid(result.total.tgt.grid), end="")
        print(f"total map degree: {degree}")
        print("source homology:")
        _print_summary_table(result.src_presentation.summary)
        print("target homology:")
        _print_summary_table(result.tgt_presentation.summary)
        print("induced map (rows = target generators):")
        for row in matrix:
            print("  " + " ".join(f"{e:>6}" for e in row))
    return EXIT_OK


def _site_record(g: GridDiagram, site: SwitchSite, before: LinkTopology) -> dict:
    band = classify_band(g, site, before)
    return {
        "col": site.col + 1,
        "row": site.row + 1,
        "letter": site.letter,
        "oriented": band.oriented,
        "band_type": band.band_type,
        "components_after": band.components_after,
    }


def cmd_sites(args: argparse.Namespace) -> int:
    g = _read_grid(args.grid)
    sites = find_switch_sites(g)
    before = link_topology(g) if sites else None  # traced once for every site
    records = [_site_record(g, s, before) for s in sites]
    if args.json:
        _print_json({"n": g.n, "sites": records})
    else:
        for r in records:
            oriented = "oriented" if r["oriented"] else "unoriented"
            print(
                f"col={r['col']} row={r['row']} letter={r['letter']} "
                f"{oriented} type={r['band_type']} "
                f"components_after={r['components_after']}",
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites


def _reproducer(g: GridDiagram, movie: Movie | None) -> str:
    text = "grid:\n" + serialize_grid(g)
    if movie is not None:
        text += "movie:\n" + serialize_movie(movie)
    return text


def _suite_curvature(args: argparse.Namespace):
    for name, g in corpus_grids().items():
        if g.n > 5:
            continue
        yield f"curvature diagonal on {name}", g, None, verify_curvature(g, args.cap)


def _suite_grading(args: argparse.Namespace):
    rng = random.Random(args.seed)
    grids = list(corpus_grids().items())
    grids += [(f"random5-seed{args.seed}-{i}", random_grid(5, rng)) for i in range(5)]
    for name, g in grids:
        # the build checks the gradings once per class of rectangles, by its
        # gap in closed form, which holds exactly when every entry fits them
        try:
            build_gc_prime(g, args.cap)
        except NotHomogeneous:
            ok = False
        else:
            ok = True
        yield f"boundary homogeneity on {name}", g, None, ok


def _suite_band_relations(args: argparse.Namespace):
    for name, g in corpus_grids().items():
        c = build_gc_prime(g, args.cap)
        u_src = scale_chain_map(identity_chain_map(c), U)
        for site in find_switch_sites(g):
            movie = Movie(g, (BandMapChoice(site), BandMapChoice(site, direction="inverse")))
            try:
                f = band_map(c, movie.moves[0])  # chain property asserted
                f_back = band_map(f.tgt, movie.moves[1])
            except ChainMapViolation:  # a failed check, reported with its movie
                ok = False
            else:
                u_mid = scale_chain_map(identity_chain_map(f.tgt), U)
                first = chain_maps_equal(compose_chain_maps(f_back, f), u_src)
                second = chain_maps_equal(compose_chain_maps(f, f_back), u_mid)
                ok = first and second
            label = f"col={site.col + 1} row={site.row + 1} letter={site.letter}"
            yield f"switch compositions equal U on {name} ({label})", g, movie, ok


def _suite_stab_relations(args: argparse.Namespace):
    for name, g in corpus_grids().items():
        if g.n > 5:
            continue
        c = build_gc_prime(g, args.cap)
        for anchor in range(2 * g.n):
            stab = quasi_stab_map(c, anchor)
            same = compose_chain_maps(quasi_destab_map(stab.tgt, anchor), stab)
            zero_ok = not same.parts
            adj = same_letter_neighbors(g, anchor)[0]
            ident = compose_chain_maps(quasi_destab_map(stab.tgt, adj), stab)
            id_ok = chain_maps_equal(ident, identity_chain_map(c))
            label = g.marking_name(anchor)
            yield f"destab-stab relations on {name} at {label}", g, None, (
                zero_ok and id_ok
            )
        ds = disk_stab_map(c)
        disk = compose_chain_maps(disk_destab_map(ds.tgt), ds)
        disk_ok = not disk.parts
        yield f"disk destab-stab vanishes on {name}", g, None, disk_ok


def _suite_commutation(args: argparse.Namespace):
    grids = corpus_grids()
    pairs = [
        ("split2x2_2x2", SwitchSite(1, 1, "O"), SwitchSite(3, 3, "O")),
        ("split2x2_2x2", SwitchSite(1, 3, "X"), SwitchSite(3, 1, "X")),
        ("unknot4_sites", SwitchSite(0, 0, "O"), SwitchSite(2, 2, "O")),
        ("unknot4_sites", SwitchSite(0, 2, "X"), SwitchSite(2, 0, "X")),
    ]
    for name, s1, s2 in pairs:
        g = grids[name]
        movie = Movie(g, (BandMapChoice(s1), BandMapChoice(s2)))  # the order composed first
        try:
            ok = verify_commutation(g, s1, s2, args.cap)
        except ChainMapViolation:  # a failed check, reported with its movie
            ok = False
        label = (
            f"({s1.col + 1},{s1.row + 1}){s1.letter} vs "
            f"({s2.col + 1},{s2.row + 1}){s2.letter}"
        )
        yield f"disjoint switches commute on {name} {label}", g, movie, ok


_SUITE_RUNNERS = {
    "curvature": _suite_curvature,
    "band-relations": _suite_band_relations,
    "stab-relations": _suite_stab_relations,
    "commutation": _suite_commutation,
    "grading": _suite_grading,
}
SUITES = tuple(_SUITE_RUNNERS)


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    if suite not in _SUITE_RUNNERS:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    checks = []
    for description, g, movie, ok in _SUITE_RUNNERS[suite](args):
        checks.append({"check": description, "passed": ok})
        if not ok:
            if args.json:
                _print_json(
                    {
                        "suite": suite,
                        "passed": False,
                        "failed_check": description,
                        "reproducer": _reproducer(g, movie),
                        "checks": checks,
                    }
                )
            else:
                print(f"FAIL {description}")
                print(_reproducer(g, movie), end="")
            return EXIT_FAIL
    if args.json:
        _print_json({"suite": suite, "passed": True, "checks": checks})
    else:
        for c in checks:
            print(f"ok {c['check']}")
        print(f"{suite}: {len(checks)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built once per process; parsing keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfloer",
        description="Unoriented grid homology and link-cobordism maps.",
    )
    parser.add_argument(
        "--cap", type=int, default=DEFAULT_STATE_CAP, help="state cap (max grid size)"
    )
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    sub = parser.add_subparsers(dest="command", required=True)
    p_hom = sub.add_parser("homology", help="graded homology of a grid file")
    p_hom.add_argument("grid")
    p_hom.set_defaults(run=cmd_homology)
    p_movie = sub.add_parser("movie", help="compose a movie script over a grid file")
    p_movie.add_argument("grid")
    p_movie.add_argument("script")
    p_movie.set_defaults(run=cmd_movie)
    p_sites = sub.add_parser("sites", help="list switch sites of a grid file")
    p_sites.add_argument("grid")
    p_sites.set_defaults(run=cmd_sites)
    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("suite")
    p_verify.set_defaults(run=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.cap < 2:
            raise ValueError(f"--cap must be at least 2, got {args.cap}")
        return args.run(args)
    except (GridFloerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(
            (_EXIT_CODES[k] for k in type(exc).__mro__ if k in _EXIT_CODES), EXIT_FAIL
        )
