"""Stabilized complexes, kept as a base complex and its stack, against the
plain complexes they stand for (`oracles.materialize`): presentations, the
entries of every move map, movies' induced matrices and the generator a
chain-map violation names, on the corpus and on seeded stacks up to depth 3
at n <= 5.  Then guards that no step builds an object of the stacked size."""
import functools
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from gridfloer import (
    ONE,
    U,
    BandMapChoice,
    ChainMap,
    DiskDestab,
    DiskStab,
    Movie,
    MonomialComplex,
    QuasiDestab,
    QuasiStab,
    Renumber,
    band_map_raw,
    build_gc_prime,
    chain_defect,
    chain_map_degree,
    compose_movie,
    find_switch_sites,
    homology,
    identity_chain_map,
    induced_map,
    move_map,
    present_homology,
    random_grid,
    same_letter_neighbors,
    scale_chain_map,
)

ROOT = Path(__file__).resolve().parent.parent


def _stack_moves(g):
    """Every stack of up to two moves from a quasi-stabilization at O1 or
    X1 and a disk stabilization, and of three from O1 and the disk."""
    two = (QuasiStab(0), DiskStab(), QuasiStab(g.n))
    yield from (s for m in range(3) for s in itertools.product(two, repeat=m))
    yield from itertools.product((QuasiStab(0), DiskStab()), repeat=3)


def _grids(corpus):
    rng = random.Random(20260814)
    grids = [(name, g) for name, g in corpus.items() if g.n <= 5]
    return grids + [(f"random{n}-{i}", random_grid(n, rng)) for n in (4, 5) for i in range(2)]


@pytest.fixture(scope="module")
def stacked(corpus):
    """(name, base complex, stack moves, stacked complex) for every grid
    and stack."""
    cases = []
    for name, g in _grids(corpus):
        base = build_gc_prime(g)
        for moves in _stack_moves(g):
            c = base
            for move in moves:
                c = move_map(c, move).tgt
            cases.append(((name, moves), base, moves, c))
    return cases


def _words(depth):
    return list(itertools.product((0, 1), repeat=depth))


def test_presentations_match_the_materialized_complex(stacked):
    torsion = 0
    for name, _, _, c in stacked:
        pres, plain = present_homology(c), oracles.materialize(c)[0]
        want = present_homology(plain)
        assert pres.summary == want.summary == homology(c), name
        assert pres.generators == want.generators, name
        got_view, want_view = oracles.label_presentation(pres), oracles.label_presentation(want)
        assert got_view.representatives == want_view.representatives, name
        assert got_view.rows == want_view.rows, name
        torsion += bool(c.tensor_stack) * len(pres.summary.torsion_multiset())
    assert torsion  # stacked ends with torsion are among the cases


def _expected_entries(base, stack, move):
    """The label entries of `move` on base under `stack`, built from the
    base alone: a band map is the base band map on every word, a
    stabilization appends plus, a destabilization keeps one tag and drops
    the other, and renumbering is the identity."""
    depth, label = len(stack), oracles.stacked_label
    xs = [(x, w) for x in base.basis.labels() for w in _words(depth)]
    if isinstance(move, BandMapChoice):
        rows = band_map_raw(base, move).entries
        return {label(x, w): {label(y, w): p for y, p in rows[x].items()} for x, w in xs}
    if isinstance(move, (QuasiStab, DiskStab)):
        return {label(x, w): {(label(x, w), "plus"): ONE} for x, w in xs}
    if isinstance(move, Renumber):
        return {label(x, w): {label(x, w): ONE} for x, w in xs}
    top = stack[-1]
    own = DiskDestab() if isinstance(top, DiskStab) else QuasiDestab(top.anchor)
    keep = "minus" if move == own else "plus"  # an adjacent quasi-destabilization keeps plus
    lower = [(x, w) for x, w in xs if w[-1:] == (0,)]  # one per word of the stack below
    return {(label(x, w[:-1]), keep): {label(x, w[:-1]): ONE} for x, w in lower}


def _moves_on(c, stack):
    g = c.grid
    moves = [BandMapChoice(s) for s in find_switch_sites(g)]
    moves += [QuasiStab(0), QuasiStab(g.n), DiskStab(), Renumber(tuple(range(c.marking_count)))]
    if stack[-1:] == (DiskStab(),):
        moves.append(DiskDestab())
    elif stack:
        top = stack[-1].anchor
        moves += [QuasiDestab(a) for a in {top, *same_letter_neighbors(g, top)}]
    return moves


def test_move_maps_match_the_materialized_maps(stacked):
    for name, base, stack, c in stacked:
        if base.grid.n > 4 and len(stack) > 2:
            continue
        for move in _moves_on(c, stack):
            f = band_map_raw(c, move) if isinstance(move, BandMapChoice) else move_map(c, move)
            plain = oracles.materialize_map(f)
            assert plain.entries == _expected_entries(base, stack, move), (name, move)
            assert chain_map_degree(f) == oracles.entry_degree(plain), (name, move)


def _closing(g, stack):
    """Destabilizations that undo `stack`, newest first: a quasi-stabilization
    at a same-letter neighbour of its anchor, a disk by its projection."""
    return [
        QuasiDestab(same_letter_neighbors(g, s.anchor)[0]) if isinstance(s, QuasiStab)
        else DiskDestab()
        for s in reversed(stack)
    ]


def _assert_induced_matches_the_materialized(movie, name):
    res = compose_movie(movie)
    plain_src, plain_tgt = oracles.materialize(res.total.src)[0], oracles.materialize(res.total.tgt)[0]
    src_pres, tgt_pres = present_homology(plain_src), present_homology(plain_tgt)
    assert res.src_presentation.summary == src_pres.summary, name
    assert res.tgt_presentation.summary == tgt_pres.summary, name
    want = induced_map(oracles.materialize_map(res.total), src_pres, tgt_pres)
    assert res.induced == want, name
    return res


def test_movie_induced_matrices_match_the_materialized(stacked):
    nonzero = 0
    for name, base, stack, _ in stacked:
        g = base.grid
        if g.n > 4 and len(stack) > 2 or not find_switch_sites(g):
            continue
        site = min(find_switch_sites(g), key=lambda s: (s.col, s.row, s.letter))
        fwd, back = BandMapChoice(site), BandMapChoice(site, direction="inverse")
        for moves in (
            (*stack, fwd),  # open: a stacked end
            (fwd, *stack, back),
            (fwd, *stack, back, *_closing(g, stack)),  # closed
        ):
            res = _assert_induced_matches_the_materialized(Movie(g, moves), (name, moves))
            nonzero += any(p for row in res.induced for p in row)
    assert nonzero


def test_violations_name_the_first_stacked_generator(stacked):
    checked = 0
    for name, base, stack, c in stacked:
        key = functools.partial(oracles.label_key, depth=len(stack))
        for site in sorted(find_switch_sites(base.grid), key=lambda s: (s.col, s.row, s.letter))[:2]:
            f = oracles.complement_band_map(c, site)
            got = chain_defect(f)
            assert got == oracles.chain_defect(f, key=key), (name, site)
            base_x = chain_defect(oracles.complement_band_map(base, site))[0]
            assert got[0] == oracles.stacked_label(base_x, (0,) * len(stack)), (name, site)
            checked += bool(stack)
    assert checked > 200


# ---------------------------------------------------------------------------
# no object of the stacked size


def _double_stack_choice(g, rng):
    """(s, a, b) for the closed movie `switch s; quasistab a twice; switch s
    back; quasidestab b twice`, with b a same-letter neighbour of a other
    than a; None when g has none."""
    sites = sorted(find_switch_sites(g), key=lambda s: (s.col, s.row, s.letter))
    anchors = [(a, b) for a in range(2 * g.n) for b in same_letter_neighbors(g, a) if b != a]
    if not sites or not anchors:
        return None
    return rng.choice(sites), *rng.choice(anchors)


def _double_stack_movie(g, rng):
    made = _double_stack_choice(g, rng)
    if made is None:
        return None
    site, a, b = made
    stab, destab = QuasiStab(a), QuasiDestab(b)
    return Movie(g, (BandMapChoice(site), stab, stab, BandMapChoice(site, direction="inverse"), destab, destab))


def _double_stack_files(n, rng, path):
    """A grid file and the movie script of a double-stack movie on a seeded
    n x n grid, written under path."""
    made = None
    while made is None:
        g = random_grid(n, rng)
        made = _double_stack_choice(g, rng)
    site, a, b = made
    switch = f"switch col={site.col + 1} row={site.row + 1} letter={site.letter} flavor=nu"
    cols = lambda seq: " ".join(str(c + 1) for c in seq)  # noqa: E731
    (path / "g.grid").write_text(f"n = {n}\nO = {cols(g.o_col)}\nX = {cols(g.x_col)}\n")
    (path / "m.movie").write_text(
        f"{switch} dir=fwd\n" + 2 * f"quasistab anchor={g.marking_name(a)}\n"
        + f"{switch} dir=inv\n" + 2 * f"quasidestab anchor={g.marking_name(b)}\n"
    )
    return path / "g.grid", path / "m.movie"


def test_a_double_stack_movie_builds_nothing_of_the_stacked_size(monkeypatch):
    # every complex, column list and map part has at most n! columns
    sizes = []
    init, post_init = MonomialComplex.__init__, ChainMap.__post_init__

    def complex_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sizes.append(len(self.basis))
        sizes.append(len(self.columns or ()))
        sizes.extend(col.bit_length() for col in self.columns or ())

    def map_post_init(self):
        post_init(self)
        sizes.extend(len(cols) for cols in self.parts.values())
        sizes.extend(col.bit_length() for cols in self.parts.values() for col in cols)

    monkeypatch.setattr(MonomialComplex, "__init__", complex_init)
    monkeypatch.setattr(ChainMap, "__post_init__", map_post_init)
    rng = random.Random(20260814)
    movie = None
    while movie is None:
        movie = _double_stack_movie(random_grid(5, rng), rng)
    res = compose_movie(movie)
    assert res.degree == -2
    u_id = scale_chain_map(identity_chain_map(res.total.src), U)
    assert res.induced == induced_map(u_id, res.src_presentation, res.tgt_presentation)
    assert sizes and max(sizes) <= 120


# `python -m gridfloer` started from a small launcher, which reports its
# child's peak RSS: Linux keeps ru_maxrss across exec, so a child started
# straight from the test process would report the test process's peak.
LAUNCHER = """\
import resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "gridfloer", *sys.argv[1:]])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
sys.exit(proc.returncode)
"""


def test_the_n7_double_stack_movie_runs_in_under_100_mb(tmp_path):
    # a closed n = 7 movie with its quasistab and its quasidestab each given
    # twice, the benchmark's movie shape; stacking copies would take it to
    # about 170 MB
    grid, script = _double_stack_files(7, random.Random(1711), tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, "--json", "movie", str(grid), str(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    # U times the identity on homology, which kills each U^1 summand
    assert doc["degree"] == -2
    assert doc["source_homology"] == doc["target_homology"]
    m = doc["induced"]
    assert all(e in (("U", "0") if i == j else ("0",)) for i, row in enumerate(m) for j, e in enumerate(row))
    assert any(row[i] == "U" for i, row in enumerate(m))
    peak_mb = int(proc.stderr.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 100, peak_mb
