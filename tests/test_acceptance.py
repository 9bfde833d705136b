"""Acceptance gate: twelve end-to-end guarantees with pinned budgets.

Each test is numbered and self-contained: it builds what it measures inside
its own timing window and compares against frozen expectations or the
independent reference implementations in oracles.py.  The one known-red
guarantee (the flavor-sum band map, number eight) is a strict xfail with its
passing pointwise half split out alongside.
"""
import random
import resource
import time

import pytest

import oracles
from conftest import SEED
from gridfloer import (
    U,
    BandMapChoice,
    ChainMapViolation,
    Movie,
    QuasiDestab,
    QuasiStab,
    SwitchSite,
    band_map,
    band_map_raw,
    boundary_squares_to_zero,
    build_complex,
    build_gc_prime,
    chain_maps_equal,
    classify_band,
    compose_chain_maps,
    compose_movie,
    corpus_grids,
    derived_stab_offsets,
    disk_destab_map,
    disk_stab_map,
    find_switch_sites,
    homology,
    identity_chain_map,
    induced_map,
    present_homology,
    quasi_destab_map,
    quasi_stab_map,
    random_grid,
    same_letter_neighbors,
    scale_chain_map,
    verify_commutation,
    verify_curvature,
)
from gridfloer.algebra import ONE, ZERO
from oracles import add_chain_maps, band_map_sum, smith_reduce, specialize


def _merge(parts):
    acc = {}
    for part in parts:
        for g, (free, tors) in part.items():
            f0, t0 = acc.get(g, (0, ()))
            acc[g] = (f0 + free, tuple(sorted(t0 + tuple(tors))))
    return {g: v for g, v in acc.items() if v[0] or v[1]}


def _shift(h, s):
    return {g - s: v for g, v in h.items()}


def test_criterion_01_boundary_squares_to_zero_corpus_and_random():
    budget = 300.0
    start = time.monotonic()
    for name, g in corpus_grids().items():
        assert boundary_squares_to_zero(build_gc_prime(g)), name
    rng = random.Random(SEED)
    for i in range(100):
        g = random_grid(7, rng)
        assert boundary_squares_to_zero(build_gc_prime(g)), (i, g)
    assert time.monotonic() - start < budget


def test_criterion_02_squared_boundary_is_curvature_diagonal():
    for name, g in corpus_grids().items():
        if g.n <= 5:
            assert verify_curvature(g), name


def test_criterion_03_every_built_complex_is_homogeneous():
    rng = random.Random(SEED)
    grids = list(corpus_grids().values())
    grids += [random_grid(rng.choice((3, 4, 5)), rng) for _ in range(20)]
    for g in grids:
        direct = build_gc_prime(g)
        grading = direct.basis.to_dict()
        for src, tgt, p in direct.entries():
            assert p.is_monomial(), (g, src, tgt)
            assert grading[src] - grading[tgt] == 2 - 2 * p.degree(), (g, src, tgt)
        if g.n <= 5:
            multi = build_complex(g)
            grading = multi.basis.to_dict()
            for src, tgt, codes in multi.entries():
                for ev in map(oracles.vector, codes):
                    assert grading[src] - grading[tgt] == 2 - 2 * ev.total()
            # the specialized rows are checked against the gradings as they
            # are turned into columns, which must be the direct build's
            via = specialize(multi, "all")
            assert oracles.is_homogeneous(via.basis, via.boundary)
            assert via.columns == direct.columns


def test_criterion_04_trefoil_homology_with_time_budget():
    budget = 10.0
    start = time.monotonic()
    summary = homology(build_gc_prime(corpus_grids()["trefoil5"]))
    elapsed = time.monotonic() - start
    assert summary.total_free() == 16
    assert summary.torsion_multiset() == (1,) * 16  # sixteen copies killed by U
    assert summary.to_dict() == {2: (16, (1,) * 16)}
    assert elapsed < budget


def test_criterion_05_unknot_tower_with_one_consistent_gap():
    grids = corpus_grids()
    h = {
        n: homology(build_gc_prime(grids[f"unknot{n}"])).to_dict()
        for n in (2, 3, 4)
    }
    for n in (2, 3, 4):
        assert sum(free for free, _ in h[n].values()) == 2 ** (n - 1)
        assert all(not tors for _, tors in h[n].values())
    gaps_23 = [s for s in range(-6, 7) if _merge([h[2], _shift(h[2], s)]) == h[3]]
    gaps_34 = [s for s in range(-6, 7) if _merge([h[3], _shift(h[3], s)]) == h[4]]
    assert gaps_23 == gaps_34
    assert len(gaps_23) == 1
    assert gaps_23[0] == derived_stab_offsets()[0]


def test_criterion_06_switch_round_trips_equal_u_everywhere():
    for name, g in corpus_grids().items():
        c = build_gc_prime(g)
        for site in find_switch_sites(g):
            f = band_map(c, BandMapChoice(site, "nu"))
            back = band_map(f.tgt, BandMapChoice(site, "nu", "inverse"))
            u_src = scale_chain_map(identity_chain_map(c), U)
            u_mid = scale_chain_map(identity_chain_map(f.tgt), U)
            assert chain_maps_equal(compose_chain_maps(back, f), u_src), (name, site)
            assert chain_maps_equal(compose_chain_maps(f, back), u_mid), (name, site)


def test_criterion_07_band_round_trip_movie_induces_u_on_homology():
    g = corpus_grids()["trefoil5"]
    sites = [s for s in find_switch_sites(g) if classify_band(g, s).band_type == "I"]
    assert sites, "no single-component band site on the trefoil"
    site = sites[0]
    movie = Movie(
        g,
        (
            BandMapChoice(site, "nu", "forward"),
            BandMapChoice(site, "nu", "inverse"),
        ),
    )
    res = compose_movie(movie)
    assert res.total.tgt.grid == g
    expected = induced_map(
        scale_chain_map(identity_chain_map(res.total.src), U),
        res.src_presentation,
        res.tgt_presentation,
    )
    assert res.induced == expected


@pytest.mark.xfail(
    reason="the flavor sum is pointwise (1+U) but never commutes with the "
    "boundaries; the passing halves are verified in the two tests below",
    strict=True,
)
def test_criterion_08_flavor_sum_is_a_chain_map():
    for name, g in corpus_grids().items():
        c = build_gc_prime(g)
        for site in find_switch_sites(g):
            band_map_sum(c, site)  # raises ChainMapViolation


def test_criterion_08a_flavor_sum_is_pointwise_one_plus_u():
    for name, g in corpus_grids().items():
        c = build_gc_prime(g)
        for site in find_switch_sites(g):
            f = band_map_raw(c, BandMapChoice(site, "nu"))
            t = band_map_raw(c, BandMapChoice(site, "nu_tilde"))
            s = add_chain_maps(f, t)
            for lab in c.basis.labels():
                assert s.entries[lab] == {lab: ONE + U}, (name, site)


def test_criterion_08b_flavor_sum_violation_carries_counterexample():
    for name, g in corpus_grids().items():
        c = build_gc_prime(g)
        for site in find_switch_sites(g):
            with pytest.raises(ChainMapViolation, match="generator"):
                band_map_sum(c, site)


def test_criterion_09_destab_stab_relations_on_homology():
    for name, g in corpus_grids().items():
        if g.n > 5:
            continue
        c = build_gc_prime(g)
        pres = present_homology(c)
        n_gen = len(pres.generators)
        zero_mat = [[ZERO] * n_gen for _ in range(n_gen)]
        id_mat = [
            [ONE if i == j else ZERO for j in range(n_gen)] for i in range(n_gen)
        ]
        for anchor in range(2 * g.n):
            stab = quasi_stab_map(c, anchor)
            same = compose_chain_maps(quasi_destab_map(stab.tgt, anchor), stab)
            assert induced_map(same, pres, pres) == zero_mat, (name, anchor)
            for adj in set(same_letter_neighbors(g, anchor)):
                near = compose_chain_maps(quasi_destab_map(stab.tgt, adj), stab)
                assert induced_map(near, pres, pres) == id_mat, (name, anchor, adj)
        ds = disk_stab_map(c)
        disk = compose_chain_maps(disk_destab_map(ds.tgt), ds)
        assert induced_map(disk, pres, pres) == zero_mat, name


def test_criterion_10_disjoint_bands_commute_on_split_link():
    g = corpus_grids()["split2x2_2x2"]
    assert verify_commutation(g, SwitchSite(1, 1, "O"), SwitchSite(3, 3, "O"))
    assert verify_commutation(g, SwitchSite(1, 3, "X"), SwitchSite(3, 1, "X"))


def test_criterion_11_smith_reduction_against_dense_oracle():
    rng = random.Random(SEED)
    for i in range(500):
        matrix = oracles.random_graded_monomial_matrix(rng, max_dim=12, max_exp=4)
        result = smith_reduce(matrix)
        assert tuple(result.diagonal) == oracles.naive_smith_diagonal(matrix), i
        if i % 10 == 0:
            assert oracles.smith_certificate(matrix, result), i


def test_criterion_12_seven_by_seven_homology_within_budget():
    time_budget = 60.0
    memory_budget_kb = 4 * 1024 * 1024
    g = random_grid(7, random.Random(SEED))
    start = time.monotonic()
    summary = homology(build_gc_prime(g, cap=8))
    elapsed = time.monotonic() - start
    assert summary.rows  # nonempty: the reduction produced a graded module
    assert elapsed < time_budget
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < memory_budget_kb
