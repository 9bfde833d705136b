"""Cobordism chain maps: bands, stabilizations, renumbering, movies."""
import functools
import itertools
import math
import operator
import random
import weakref
from pathlib import Path

import pytest

import oracles
from gridfloer import (
    ONE,
    U,
    ZERO,
    AnchorMismatch,
    BadPermutation,
    BandMapChoice,
    BrokenInvariant,
    ChainMap,
    ChainMapViolation,
    GradedModuleSummary,
    DiskDestab,
    DiskStab,
    InvalidSite,
    Movie,
    MoveSequenceInvalid,
    ParseError,
    QuasiDestab,
    QuasiStab,
    Renumber,
    SitesNotDisjoint,
    SwitchSite,
    apply_switch,
    band_map,
    band_map_raw,
    build_gc_prime,
    chain_defect,
    chain_map_degree,
    chain_maps_equal,
    classify_band,
    compose_chain_maps,
    compose_movie,
    corpus_grid,
    derived_stab_offsets,
    disk_destab_map,
    disk_stab_map,
    find_switch_sites,
    homology,
    identity_chain_map,
    induced_map,
    is_chain_map,
    maps_equal_on_homology,
    move_map,
    parse_grid,
    parse_movie,
    quasi_destab_map,
    quasi_stab_map,
    random_grid,
    renumber_map,
    same_letter_neighbors,
    scale_chain_map,
    serialize_movie,
    verify_commutation,
)
from gridfloer import algebra, cobordism
from gridfloer.algebra import _columns, _ends
from oracles import add_chain_maps, band_map_sum

def _u_id(c):
    return scale_chain_map(identity_chain_map(c), U)


class TestStabOffsets:
    def test_derived_values(self):
        assert derived_stab_offsets() == (0, 2)

    def test_gap_must_be_unique(self, monkeypatch):
        from gridfloer import cobordism

        by_size = {2: {0: (1, ())}, 3: {0: (2, ())}, 4: {0: (1, ())}}
        monkeypatch.setattr(
            cobordism, "homology",
            lambda c: GradedModuleSummary.from_dict(by_size[c.grid.n]),
        )
        with pytest.raises(BrokenInvariant, match="disk gap not unique"):
            derived_stab_offsets.__wrapped__()
        by_size[3] = {0: (3, ())}
        with pytest.raises(BrokenInvariant, match="quasi gap not unique"):
            derived_stab_offsets.__wrapped__()

    def test_quasi_stab_reproduces_next_unknot(self, gc_primes):
        f = quasi_stab_map(gc_primes["unknot2"], 0)
        assert homology(f.tgt).to_dict() == homology(gc_primes["unknot3"]).to_dict()

    def test_disk_stab_reproduces_split_union(self, gc_primes):
        # the 4x4 split grid carries one extra size factor relative to the
        # tensor model: H(tgt) plus a copy shifted by the quasi gap
        f = disk_stab_map(gc_primes["unknot2"])
        s_v, _ = derived_stab_offsets()
        got = homology(f.tgt).to_dict()
        merged: dict = {}
        for d, (free, tors) in got.items():
            for shift in (0, s_v):
                f0, t0 = merged.get(d - shift, (0, ()))
                merged[d - shift] = (f0 + free, tuple(sorted(t0 + tors)))
        assert merged == homology(gc_primes["split2x2_2x2"]).to_dict()


class TestMoveValidation:
    def test_band_choice_fields(self):
        site = SwitchSite(0, 0, "O")
        with pytest.raises(ValueError, match="unknown direction 'sideways'"):
            BandMapChoice(site, direction="sideways")
        # the old positional form, site then flavor, names a direction
        with pytest.raises(ValueError, match="unknown direction 'nu'"):
            BandMapChoice(site, "nu")

    def test_stab_model_fields(self):
        for move in (QuasiStab, QuasiDestab):
            with pytest.raises(TypeError):
                move()  # anchor required

    def test_band_map_requires_site(self, gc_primes):
        with pytest.raises(InvalidSite):
            band_map(gc_primes["trefoil5"], BandMapChoice(SwitchSite(1, 0, "O")))

    def test_unknown_move_rejected(self, gc_primes):
        with pytest.raises(MoveSequenceInvalid):
            move_map(gc_primes["unknot2"], "not a move")


class TestBandMaps:
    def test_nu_is_chain_map_everywhere(self, corpus, gc_primes):
        for name, g in corpus.items():
            for site in find_switch_sites(g):
                f = band_map(gc_primes[name], BandMapChoice(site))
                assert is_chain_map(f), (name, site)
                assert f.tgt.grid == apply_switch(g, site)

    def test_degree_matches_band_type(self, corpus, gc_primes):
        # a split drops the doubled grading by 2, a merge preserves it
        for name, g in corpus.items():
            for site in find_switch_sites(g):
                f = band_map(gc_primes[name], BandMapChoice(site))
                want = -2 if classify_band(g, site).band_type == "I" else 0
                assert chain_map_degree(f) == want, (name, site)

    def test_diagonal_monomial_entries(self, corpus, gc_primes):
        for name, g in corpus.items():
            n = g.n
            for site in find_switch_sites(g):
                f = band_map(gc_primes[name], BandMapChoice(site))
                exps = []
                for lab in f.src.basis.labels():
                    row = f.entries[lab]
                    assert set(row) == {lab}
                    (k,) = row[lab].terms
                    exps.append(k)
                # the distinguished point lies in (n-1)! of the n! states
                assert sum(exps) in (
                    math.factorial(n - 1),
                    math.factorial(n) - math.factorial(n - 1),
                ), (name, site)

    def test_flavors_complement_each_other(self, corpus, gc_primes):
        # the package's U-placement against the oracle's complementary one
        for name, g in corpus.items():
            for site in find_switch_sites(g):
                f = band_map_raw(gc_primes[name], BandMapChoice(site))
                t = oracles.complement_band_map(gc_primes[name], site)
                for lab in f.src.basis.labels():
                    ks = {next(iter(f.entries[lab][lab].terms)),
                          next(iter(t.entries[lab][lab].terms))}
                    assert ks == {0, 1}, (name, site)

    def test_nu_tilde_never_commutes(self, corpus, gc_primes, complement_band_maps):
        # patched in, the complement fails band_map's check at every site
        for name, g in corpus.items():
            for site in find_switch_sites(g):
                with pytest.raises(ChainMapViolation, match="^band map at col=.* generator"):
                    band_map(gc_primes[name], BandMapChoice(site))

    def test_flavor_sum_is_not_a_chain_map(self, corpus, gc_primes):
        for name, g in corpus.items():
            for site in find_switch_sites(g):
                with pytest.raises(ChainMapViolation):
                    band_map_sum(gc_primes[name], site)

    def test_flavor_sum_is_pointwise_one_plus_u(self, corpus, gc_primes):
        from gridfloer import ONE

        for name, g in corpus.items():
            if g.n > 5:
                continue
            for site in find_switch_sites(g):
                f = band_map_raw(gc_primes[name], BandMapChoice(site))
                t = oracles.complement_band_map(gc_primes[name], site)
                s = add_chain_maps(f, t)
                for lab in s.src.basis.labels():
                    assert s.entries[lab] == {lab: ONE + U}, (name, site)

    def test_round_trip_is_multiplication_by_u(self, corpus, gc_primes):
        # switch forward then back: exactly U, as matrices, in both orders
        for name, g in corpus.items():
            if g.n > 5:
                continue
            for site in find_switch_sites(g):
                f = band_map(gc_primes[name], BandMapChoice(site))
                back = band_map(f.tgt, BandMapChoice(site, direction="inverse"))
                assert chain_maps_equal(
                    compose_chain_maps(back, f), _u_id(gc_primes[name])
                ), (name, site)
                assert chain_maps_equal(
                    compose_chain_maps(f, back), _u_id(f.tgt)
                ), (name, site)


def _same_defect(f):
    """chain_defect agrees with the oracle, down to the first generator and
    both sides; returns the defect."""
    got = chain_defect(f)
    key = functools.partial(oracles.label_key, depth=len(f.src.tensor_stack))
    assert got == oracles.chain_defect(f, key=key)
    return got


class TestChainDefect:
    """The entry-by-entry check of diagonal maps against the per-generator
    oracle, on passing and failing maps."""

    def test_both_flavors_on_every_corpus_site(self, corpus, gc_primes):
        for name, g in corpus.items():
            for site in find_switch_sites(g):
                nu = band_map_raw(gc_primes[name], BandMapChoice(site))
                assert _same_defect(nu) is None, (name, site)
                tilde = oracles.complement_band_map(gc_primes[name], site)
                assert _same_defect(tilde) is not None, (name, site)

    def test_flavor_sum(self, gc_primes):
        c = gc_primes["trefoil5"]
        for site in find_switch_sites(c.grid):
            nu = band_map_raw(c, BandMapChoice(site))
            tilde = oracles.complement_band_map(c, site)
            assert _same_defect(add_chain_maps(nu, tilde)) is not None, site

    def test_quasi_stabilized_complex(self, gc_primes):
        c = gc_primes["trefoil5"]
        stab = quasi_stab_map(c, 0)
        assert _same_defect(stab) is None
        for site in find_switch_sites(c.grid):
            assert _same_defect(band_map_raw(stab.tgt, BandMapChoice(site))) is None, site
            assert _same_defect(oracles.complement_band_map(stab.tgt, site)) is not None, site

    def _band(self, gc_primes):
        c = gc_primes["trefoil5"]
        return band_map_raw(c, BandMapChoice(find_switch_sites(c.grid)[0]))

    def test_one_flipped_u_placement(self, gc_primes):
        band = self._band(gc_primes)
        for f in (band, identity_chain_map(band.src)):
            for x in list(f.src.boundary)[::17]:
                (p,) = f.entries[x].values()
                entries = {**f.entries, x: {x: U if p == ONE else ONE}}
                assert _same_defect(oracles.chain_map(f.src, f.tgt, entries)) is not None, x

    def test_one_target_boundary_entry_dropped(self, gc_primes):
        f = self._band(gc_primes)
        for x in list(f.tgt.boundary)[::17]:
            row = dict(f.tgt.boundary[x])
            row.pop(next(iter(row)))
            d = oracles.complex_from_rows(
                f.tgt.basis, {**f.tgt.boundary, x: row}, f.tgt.marking_count, f.tgt.grid
            )
            assert _same_defect(oracles.chain_map(f.src, d, f.entries)) is not None, x

    def test_both_flavors_on_stacked_complexes(self, gc_primes):
        c = gc_primes["trefoil5"]
        quasi = quasi_stab_map(c, 0).tgt
        stacks = (quasi, disk_stab_map(c).tgt, disk_stab_map(quasi).tgt)
        for stacked in stacks:
            for site in find_switch_sites(c.grid):
                nu = band_map_raw(stacked, BandMapChoice(site))
                assert _same_defect(nu) is None, (stacked.tensor_stack, site)
                tilde = oracles.complement_band_map(stacked, site)
                assert _same_defect(tilde) is not None, (stacked.tensor_stack, site)

    def test_both_flavors_on_seeded_grids(self):
        rng = random.Random(20260814)
        for _ in range(2):
            c = build_gc_prime(random_grid(6, rng))
            for site in find_switch_sites(c.grid):
                assert _same_defect(band_map_raw(c, BandMapChoice(site))) is None, (c.grid, site)
                tilde = oracles.complement_band_map(c, site)
                assert _same_defect(tilde) is not None, (c.grid, site)

    def test_one_stored_column_bit_flipped(self, gc_primes):
        # clear column j of f, where j is in d(x) for some x: then f(d(x))
        # loses the term that d(f(x)) keeps
        f = self._band(gc_primes)
        ((degree, cols),) = f.parts.items()
        d_cols = _columns(f.src)
        reached = functools.reduce(operator.or_, d_cols)
        hits = [j for j in range(len(cols)) if reached >> j & 1][::17]
        assert hits
        for j in hits:
            flipped = list(cols)
            flipped[j] ^= cols[j]
            g = ChainMap(f.src, f.tgt, {degree: flipped})
            assert _same_defect(g) is not None, j

    def test_two_states_swapped(self, gc_primes):
        # one part between two built complexes, each column one bit, but two
        # states of one grading sent to each other's image: not state-keeping
        f = self._band(gc_primes)
        ((degree, cols),) = f.parts.items()
        gradings = f.src.basis.gradings()
        pairs = [(j, j + 1) for j in range(len(cols) - 1) if gradings[j] == gradings[j + 1]][::17]
        assert pairs
        for j, k in pairs:
            swapped = list(cols)
            swapped[j], swapped[k] = cols[k], cols[j]
            g = ChainMap(f.src, f.tgt, {degree: swapped})
            assert _same_defect(g) is not None, (j, k)

    def test_composite_of_every_composed_movie(self):
        movies = _composed_movies()
        assert len(movies) == 14
        for movie in movies:
            assert _same_defect(compose_movie(movie).total) is None, movie


def _composed_movies() -> list:
    """The movies of `test_source.MOVIES` and of the golden cases that
    compose: every one but a chain-map violation or a refused move."""
    from test_golden_cli import CASES
    from test_source import MOVIES

    scripts = [(name, script) for _, name, script, code in MOVIES if code == 0]
    scripts += [(grid, script) for case, (_, grid, script) in CASES.items() if not case.startswith("violation")]
    return [
        parse_movie(script, parse_grid(grid) if "\n" in grid else corpus_grid(grid))
        for grid, script in scripts
    ]


@pytest.fixture
def per_bit_calls(monkeypatch):
    """The columns `algebra._apply_bits` is called on, from now on."""
    calls = []
    real = algebra._apply_bits

    def counting(cols, col):
        calls.append(col)
        return real(cols, col)

    monkeypatch.setattr(algebra, "_apply_bits", counting)
    return calls


class TestChainDefectShortcut:
    """A one-part map that keeps every state, between two complexes built
    from the rectangle pattern, is certified without the per-bit loop; any
    other map runs it."""

    def test_nu_band_maps_skip_the_loop(self, corpus, gc_primes, per_bit_calls):
        for name, g in corpus.items():
            for site in find_switch_sites(g):
                per_bit_calls.clear()
                band_map(gc_primes[name], BandMapChoice(site))
                assert not per_bit_calls, (name, site)

    def test_closed_movie_composites_skip_the_loop(self, per_bit_calls):
        parts = []
        for movie in _composed_movies():
            total = compose_movie(movie).total
            if total.tgt.grid != movie.start or total.tgt.tensor_stack:
                continue  # not closed: it ends elsewhere, or stacked
            parts.append(len(total.parts))
            per_bit_calls.clear()
            assert chain_defect(total) is None
            assert not per_bit_calls, movie
        assert sorted(parts) == [0, 1, 1]  # a quasistab undone at its anchor is zero

    def test_nu_tilde_runs_the_loop(self, gc_primes, per_bit_calls):
        c = gc_primes["trefoil5"]
        for site in find_switch_sites(c.grid):
            f = oracles.complement_band_map(c, site)
            per_bit_calls.clear()
            assert chain_defect(f) is not None
            assert per_bit_calls, site

    def test_an_end_built_by_hand_runs_the_loop(self, gc_primes, per_bit_calls):
        c = gc_primes["trefoil5"]
        for site in find_switch_sites(c.grid):
            f = band_map(c, BandMapChoice(site))
            for src, tgt in ((f.src, _by_hand(f.tgt)), (_by_hand(f.src), f.tgt)):
                g = ChainMap(src, tgt, f.parts)
                per_bit_calls.clear()
                assert chain_defect(g) is None
                assert per_bit_calls, site


def _by_hand(c):
    """c's boundary, copied into a complex built from its label-keyed rows."""
    return oracles.complex_from_rows(c.basis, c.boundary, c.marking_count, c.grid)


class TestQuasiStabilization:
    def test_projection_relations_all_anchors(self, corpus, gc_primes):
        # destab at the same anchor kills the image; at either adjacent
        # anchor it is the identity
        for name, g in corpus.items():
            if g.n > 4:
                continue
            c = gc_primes[name]
            for anchor in range(2 * g.n):
                stab = quasi_stab_map(c, anchor)
                same = quasi_destab_map(stab.tgt, anchor)
                zero = compose_chain_maps(same, stab)
                assert all(
                    not p for row in zero.entries.values() for p in row.values()
                ), (name, anchor)
                for adj in set(same_letter_neighbors(g, anchor)):
                    near = quasi_destab_map(stab.tgt, adj)
                    ident = compose_chain_maps(near, stab)
                    assert chain_maps_equal(ident, identity_chain_map(c)), (
                        name,
                        anchor,
                        adj,
                    )

    def test_grading_offsets(self, gc_primes):
        c = gc_primes["unknot3"]
        stab = quasi_stab_map(c, 2)
        assert chain_map_degree(stab) == 0
        base = c.basis.to_dict()
        stacked = oracles.materialize(stab.tgt)[0].basis.to_dict()
        s_v, _ = derived_stab_offsets()
        for lab, d in base.items():
            assert stacked[(lab, "plus")] == d
            assert stacked[(lab, "minus")] == d - s_v

    def test_marking_count_grows(self, gc_primes):
        c = gc_primes["unknot2"]
        stab = quasi_stab_map(c, 1)
        assert stab.tgt.marking_count == c.marking_count + 2
        assert stab.tgt.tensor_stack == (QuasiStab(1),)

    def test_bad_anchor(self, gc_primes):
        c = gc_primes["unknot2"]
        with pytest.raises(AnchorMismatch):
            quasi_stab_map(c, 4)
        with pytest.raises(AnchorMismatch):
            quasi_destab_map(c, 0)

    def test_non_adjacent_destab_rejected(self, gc_primes):
        # trefoil5 neighbors of O1 are O4 and O3; O2 is neither
        c = gc_primes["trefoil5"]
        stab = quasi_stab_map(c, 0)
        assert set(same_letter_neighbors(c.grid, 0)) == {3, 2}
        with pytest.raises(AnchorMismatch, match="neither"):
            quasi_destab_map(stab.tgt, 1)

    def test_custom_tags_and_sides(self, gc_primes):
        c = gc_primes["unknot2"]
        stab = quasi_stab_map(c, 0)
        labs = oracles.materialize(stab.tgt)[0].basis.labels()
        assert {tag for _, tag in labs} == {"plus", "minus"}
        assert stab.tgt.tensor_stack == (QuasiStab(0),)
        same = quasi_destab_map(stab.tgt, 0)
        assert all(not p for row in compose_chain_maps(same, stab).entries.values()
                   for p in row.values())

    def test_nested_stabilizations_unwind_in_order(self, gc_primes):
        c = gc_primes["unknot2"]
        s1 = quasi_stab_map(c, 0)
        s2 = quasi_stab_map(s1.tgt, 1)
        assert s2.tgt.tensor_stack == (QuasiStab(0), QuasiStab(1))
        d2 = quasi_destab_map(s2.tgt, 0)  # adjacent
        d1 = quasi_destab_map(d2.tgt, 1)  # adjacent
        total = compose_chain_maps(
            d1, compose_chain_maps(d2, compose_chain_maps(s2, s1))
        )
        assert chain_maps_equal(total, identity_chain_map(c))


class TestDiskStabilization:
    def test_projection_kills_the_image(self, gc_primes):
        for name in ("unknot2", "hopf4", "trefoil5"):
            c = gc_primes[name]
            stab = disk_stab_map(c)
            destab = disk_destab_map(stab.tgt)
            zero = compose_chain_maps(destab, stab)
            assert all(not p for row in zero.entries.values() for p in row.values())

    def test_degrees(self, gc_primes):
        c = gc_primes["unknot3"]
        stab = disk_stab_map(c)
        destab = disk_destab_map(stab.tgt)
        assert chain_map_degree(stab) == 0
        assert chain_map_degree(destab) == 2

    def test_destab_needs_disk_on_top(self, gc_primes):
        c = gc_primes["unknot2"]
        with pytest.raises(MoveSequenceInvalid):
            disk_destab_map(c)
        quasi = quasi_stab_map(c, 0)
        with pytest.raises(MoveSequenceInvalid):
            disk_destab_map(quasi.tgt)
        disk = disk_stab_map(c)
        with pytest.raises(AnchorMismatch):
            quasi_destab_map(disk.tgt, 0)


class TestBandOnStabilizedComplex:
    def test_relations_survive_tensoring(self, gc_primes):
        c = gc_primes["unknot4_sites"]
        stab = quasi_stab_map(c, 0)
        site = find_switch_sites(c.grid)[0]
        f = band_map(stab.tgt, BandMapChoice(site))
        assert f.tgt.tensor_stack == stab.tgt.tensor_stack
        back = band_map(f.tgt, BandMapChoice(site, direction="inverse"))
        assert chain_maps_equal(compose_chain_maps(back, f), _u_id(stab.tgt))

    def test_disk_stacks_keep_the_band_map(self, gc_primes):
        # the target is rebuilt under the source's stack, so a disk entry
        # must bring back the disk gap, not the quasi one
        c = gc_primes["unknot4_sites"]
        site = find_switch_sites(c.grid)[0]
        plain = band_map(c, BandMapChoice(site))
        assert chain_map_degree(plain) == -2
        disk = disk_stab_map(c).tgt
        disk_then_quasi = quasi_stab_map(disk, 0).tgt
        assert disk_then_quasi.tensor_stack == (DiskStab(), QuasiStab(0))
        for stacked in (disk, disk_then_quasi):
            f = band_map(stacked, BandMapChoice(site))
            assert chain_map_degree(f) == chain_map_degree(plain)
            assert f.tgt.tensor_stack == stacked.tensor_stack
            back = band_map(f.tgt, BandMapChoice(site, direction="inverse"))
            assert chain_maps_equal(compose_chain_maps(back, f), _u_id(stacked))


class TestRenumber:
    def test_single_variable_identity(self, gc_primes):
        c = gc_primes["unknot3"]
        f = renumber_map(c, (3, 4, 5, 0, 1, 2))
        assert f.src is c and f.tgt is c
        assert chain_maps_equal(f, identity_chain_map(c))

    def test_bad_permutation(self, gc_primes):
        c = gc_primes["unknot3"]
        with pytest.raises(BadPermutation):
            renumber_map(c, (0, 1))
        with pytest.raises(BadPermutation):
            renumber_map(c, (0, 0, 1, 2, 3, 3))

    def test_multivariable_refused(self, multi_complexes):
        # a movie runs on single-variable complexes only
        with pytest.raises(MoveSequenceInvalid, match="single-variable"):
            renumber_map(multi_complexes["hopf4"], (2, 0, 1, 3, 7, 6, 5, 4))


class TestCommutation:
    @pytest.mark.parametrize(
        "name, s1, s2",
        [
            ("split2x2_2x2", ("O", 1, 1), ("O", 3, 3)),
            ("split2x2_2x2", ("X", 1, 3), ("X", 3, 1)),
            ("unknot4_sites", ("O", 0, 0), ("O", 2, 2)),
            ("unknot4_sites", ("X", 0, 2), ("X", 2, 0)),
        ],
    )
    def test_disjoint_bands_commute(self, corpus, name, s1, s2):
        g = corpus[name]
        site1 = SwitchSite(s1[1], s1[2], s1[0])
        site2 = SwitchSite(s2[1], s2[2], s2[0])
        assert verify_commutation(g, site1, site2)

    def test_overlapping_sites_rejected(self, corpus):
        g = corpus["trefoil5"]
        with pytest.raises(SitesNotDisjoint):
            verify_commutation(g, SwitchSite(0, 0, "O"), SwitchSite(1, 1, "O"))

    def test_a_first_band_map_times_u_does_not_commute(self, corpus, monkeypatch):
        # U times a band map is still a chain map, so only the matrices on
        # homology can tell the two orders apart
        g, site1, site2 = corpus["split2x2_2x2"], SwitchSite(1, 1, "O"), SwitchSite(3, 3, "O")
        real = cobordism.band_map_raw

        def first_times_u(c, choice):
            f = real(c, choice)
            return scale_chain_map(f, U) if (c.grid, choice.site) == (g, site1) else f

        monkeypatch.setattr(cobordism, "band_map_raw", first_times_u)
        assert not verify_commutation(g, site1, site2)

    def test_agrees_with_the_orders_composed_by_hand(self, corpus):
        # the four band maps and two compositions that the movies replace,
        # on every disjoint pair of sites of the small corpus grids
        checked = 0
        for g in corpus.values():
            if g.n > 5:
                continue
            c = build_gc_prime(g)
            for site1, site2 in itertools.combinations(find_switch_sites(g), 2):
                try:
                    got = verify_commutation(g, site1, site2)
                except SitesNotDisjoint:
                    continue
                f1 = band_map(c, BandMapChoice(site1))
                f2 = band_map(c, BandMapChoice(site2))
                order_a = compose_chain_maps(band_map(f1.tgt, BandMapChoice(site2)), f1)
                order_b = compose_chain_maps(band_map(f2.tgt, BandMapChoice(site1)), f2)
                assert got == maps_equal_on_homology(order_a, order_b), (g, site1, site2)
                checked += 1
        assert checked == 18


class TestMovies:
    def test_empty_movie_is_identity(self, corpus):
        res = compose_movie(Movie(corpus["unknot3"]))
        assert res.total.tgt.grid == corpus["unknot3"]
        assert res.src_presentation.summary == res.tgt_presentation.summary
        n_gen = len(res.src_presentation.generators)
        for i in range(n_gen):
            for j in range(n_gen):
                want = "1" if i == j else "0"
                assert repr(res.induced[i][j]) == want

    def test_band_round_trip_induces_u(self, corpus):
        g = corpus["trefoil5"]
        site = find_switch_sites(g)[0]
        movie = Movie(
            g,
            (
                BandMapChoice(site),
                BandMapChoice(site, direction="inverse"),
            ),
        )
        res = compose_movie(movie)
        assert res.total.tgt.grid == g
        expected = induced_map(
            _u_id(res.total.src), res.src_presentation, res.tgt_presentation
        )
        assert res.induced == expected

    def test_stab_then_destab_movies(self, corpus):
        g = corpus["unknot2"]
        same = Movie(
            g,
            (
                QuasiStab(0),
                QuasiDestab(0),
            ),
        )
        res = compose_movie(same)
        assert all(p == ZERO for row in res.induced for p in row)
        adjacent = Movie(
            g,
            (
                QuasiStab(0),
                QuasiDestab(1),
            ),
        )
        res2 = compose_movie(adjacent)
        assert chain_maps_equal(
            res2.total, identity_chain_map(res2.total.src)
        )

    def test_disk_movie(self, corpus):
        res = compose_movie(
            Movie(corpus["unknot2"], (DiskStab(), DiskDestab()))
        )
        assert all(p == ZERO for row in res.induced for p in row)

    def test_total_matches_manual_composition(self, corpus):
        g = corpus["unknot4_sites"]
        site = find_switch_sites(g)[0]
        moves = (
            QuasiStab(2),
            BandMapChoice(site),
            QuasiDestab(2),
        )
        res = compose_movie(Movie(g, moves))
        c = res.total.src
        f1 = move_map(c, moves[0])
        f2 = move_map(f1.tgt, moves[1])
        f3 = move_map(f2.tgt, moves[2])
        manual = compose_chain_maps(f3, compose_chain_maps(f2, f1))
        assert chain_maps_equal(res.total, manual)

    def test_movie_rejects_bad_sequences(self, corpus, complement_band_maps):
        with pytest.raises(MoveSequenceInvalid):
            compose_movie(Movie(corpus["unknot2"], (DiskDestab(),)))
        with pytest.raises(ChainMapViolation):
            compose_movie(Movie(corpus["trefoil5"], (BandMapChoice(SwitchSite(0, 0, "O")),)))


def _closed_movie(g, rng):
    """The benchmark's movie shape on g: switch s; quasistab a; switch s
    back; quasidestab b, with b a same-letter neighbour of a other than a.
    None when g has no switch site or no such pair."""
    sites = sorted(find_switch_sites(g), key=lambda s: (s.col, s.row, s.letter))
    anchors = [
        (a, b) for a in range(2 * g.n) for b in sorted(set(same_letter_neighbors(g, a))) if b != a
    ]
    if not sites or not anchors:
        return None
    site, (a, b) = rng.choice(sites), rng.choice(anchors)
    return Movie(
        g,
        (
            BandMapChoice(site),
            QuasiStab(a),
            BandMapChoice(site, direction="inverse"),
            QuasiDestab(b),
        ),
    )


def _assert_induced_matches_oracle(movie, name):
    """The F2 induced matrix of a movie against the label-keyed reference:
    each representative pushed through the composite's entries and
    projected by its label-keyed row."""
    res = compose_movie(movie)
    src = oracles.label_presentation(res.src_presentation)
    tgt = oracles.label_presentation(res.tgt_presentation)
    assert res.induced == oracles.induced_map(res.total, src, tgt), name
    return res


class TestInducedMapOracle:
    def test_corpus_movies(self, corpus):
        # closed movies in the benchmark's shape, open ones whose ends have
        # different presentations, and the README tour
        rng = random.Random(20260814)
        for name, g in corpus.items():
            movie = _closed_movie(g, rng)
            if movie is None:
                continue
            res = _assert_induced_matches_oracle(movie, name)
            assert res.induced == induced_map(
                _u_id(res.total.src), res.src_presentation, res.tgt_presentation
            ), name
            band, stab = movie.moves[:2]
            opens = [(band,), (stab,)]
            if g.n <= 5:
                opens += [(stab, DiskStab()), (band, stab, DiskStab())]
            for moves in opens:
                _assert_induced_matches_oracle(Movie(g, moves), (name, moves))
        tour = parse_movie(MOVIE_SCRIPT, corpus["unknot4_sites"])
        _assert_induced_matches_oracle(tour, "tour")

    @pytest.mark.parametrize("n, count", [(5, 8), (6, 6)])
    def test_seeded_closed_movies(self, n, count):
        rng = random.Random(20260814)
        done = 0
        while done < count:
            movie = _closed_movie(random_grid(n, rng), rng)
            if movie is not None:
                res = _assert_induced_matches_oracle(movie, (n, done))
                assert any(p for row in res.induced for p in row), (n, done)
                done += 1


def _count_presentations(monkeypatch, module):
    """Count calls of `module.present_homology` through a wrapper."""
    calls = []
    real = module.present_homology

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(module, "present_homology", counting)
    return calls


class TestPresentationReuse:
    def test_closed_movie_presents_once(self, corpus, monkeypatch):
        from gridfloer import cobordism

        g = corpus["unknot4_sites"]
        site = find_switch_sites(g)[0]
        a = 2
        b = same_letter_neighbors(g, a)[0]
        movie = Movie(
            g,
            (
                BandMapChoice(site),
                QuasiStab(a),
                BandMapChoice(site, direction="inverse"),
                QuasiDestab(b),
            ),
        )
        calls = _count_presentations(monkeypatch, cobordism)
        res = compose_movie(movie)
        assert _ends(res.total.tgt) == _ends(res.total.src)
        assert res.src_presentation is res.tgt_presentation
        assert len(calls) == 1

    def test_open_movie_presents_both_ends(self, corpus, monkeypatch):
        from gridfloer import cobordism

        g = corpus["unknot4_sites"]
        site = find_switch_sites(g)[0]
        calls = _count_presentations(monkeypatch, cobordism)
        # a stabilized end keeps the start grid but is another complex
        for move, final_grid in (
            (BandMapChoice(site), apply_switch(g, site)),
            (QuasiStab(0), g),
        ):
            calls.clear()
            res = compose_movie(Movie(g, (move,)))
            assert res.total.tgt.grid == final_grid
            assert res.src_presentation is not res.tgt_presentation
            assert len(calls) == 2
            assert res.tgt_presentation.summary == homology(res.total.tgt)

    def test_a_destabilization_builds_no_complex(self, monkeypatch):
        # a stack carried across a switch, then destabilized: the
        # destabilization restacks the switched grid's complex, so each
        # grid is built once
        from gridfloer import complexes

        derived_stab_offsets()  # builds its own small grids once
        monkeypatch.setattr(complexes, "_GC_PRIME_ALIVE", weakref.WeakValueDictionary())
        built = []
        real = complexes._build_gc_prime

        def counting(g):
            built.append(g)
            return real(g)

        monkeypatch.setattr(complexes, "_build_gc_prime", counting)
        g = corpus_grid("trefoil5")
        script = "quasistab anchor=O1\nswitch col=1 row=1 letter=O flavor=nu dir=fwd\nquasidestab anchor=O1\n"
        res = compose_movie(parse_movie(script, g))
        assert res.total.tgt.grid != g
        assert len(built) == len(set(built)) == 2

    def test_a_stack_keeps_its_switched_base_alive(self, monkeypatch):
        # a stacked band map's target is a restacked copy of the switched
        # grid's complex; the copy holds that complex, so switching back
        # and forth on a stack builds each grid once, as without the stack
        from gridfloer import complexes

        derived_stab_offsets()  # builds its own small grids once
        monkeypatch.setattr(complexes, "_GC_PRIME_ALIVE", weakref.WeakValueDictionary())
        built = []
        real = complexes._build_gc_prime

        def counting(g):
            built.append(g)
            return real(g)

        monkeypatch.setattr(complexes, "_build_gc_prime", counting)
        g = corpus_grid("trefoil5")
        switches = "".join(
            f"switch col=1 row=1 letter=O flavor=nu dir={d}\n" for d in ("fwd", "inv", "fwd")
        )
        for stack in ("quasistab anchor=O1\n", ""):
            built.clear()
            res = compose_movie(parse_movie(stack + switches, g))
            assert res.total.tgt.grid != g
            assert len(built) == len(set(built)) == 2, stack
            del res
            assert not complexes._GC_PRIME_ALIVE  # nothing outlives the movie

    def test_maps_equal_on_homology_presents_once(self, gc_primes, monkeypatch):
        from gridfloer import algebra

        ident = identity_chain_map(gc_primes["trefoil5"])
        calls = _count_presentations(monkeypatch, algebra)
        assert maps_equal_on_homology(ident, ident)
        assert len(calls) == 1


MOVIE_SCRIPT = """\
# a full tour of the move vocabulary
switch col=1 row=1 letter=O flavor=nu dir=fwd
quasistab anchor=O2
quasidestab anchor=O2
diskstab
diskdestab
renumber 2 3 1 4 5 6 7 8
"""


README = Path(__file__).resolve().parent.parent / "README.md"


class TestMovieScripts:
    def test_parse_round_trip(self, corpus):
        g = corpus["unknot4_sites"]
        movie = parse_movie(MOVIE_SCRIPT, g)
        assert movie.start == g
        kinds = [type(m).__name__ for m in movie.moves]
        assert kinds == [
            "BandMapChoice",
            "QuasiStab",
            "QuasiDestab",
            "DiskStab",
            "DiskDestab",
            "Renumber",
        ]
        assert parse_movie(serialize_movie(movie), g) == movie

    def test_readme_tour_round_trips(self, corpus):
        # the README's script must parse, use every move and serialize back
        blocks = README.read_text().split("```")[1::2]
        (script,) = [b for b in blocks if "# a full tour of the move vocabulary" in b]
        g = corpus["unknot4_sites"]
        movie = parse_movie(script, g)
        kinds = {type(m) for m in movie.moves}
        assert kinds == {BandMapChoice, QuasiStab, QuasiDestab, DiskStab, DiskDestab, Renumber}
        moves = [line for line in script.splitlines() if line and not line.startswith("#")]
        assert serialize_movie(movie).splitlines() == moves
        assert parse_movie(serialize_movie(movie), g) == movie

    def test_readme_python_runs_the_band_round_trip(self):
        # the quick start, run as one session, ends with the relation it states
        blocks = README.read_text().split("```")[1::2]
        namespace = {}
        for block in blocks:
            if block.startswith("python\n"):
                exec(block.removeprefix("python\n"), namespace)
        f, back, c = namespace["f"], namespace["back"], namespace["c"]
        assert chain_maps_equal(compose_chain_maps(back, f), _u_id(c))

    def test_one_indexing(self, corpus):
        movie = parse_movie(
            "switch col=1 row=1 letter=O flavor=nu dir=fwd\n",
            corpus["unknot4_sites"],
        )
        (choice,) = movie.moves
        assert (choice.site.col, choice.site.row) == (0, 0)
        assert choice.direction == "forward"
        stab = parse_movie("quasistab anchor=X3\n", corpus["unknot4_sites"])
        assert stab.moves[0] == QuasiStab(4 + 2)

    def test_serialize_empty(self, corpus):
        assert serialize_movie(Movie(corpus["unknot2"])) == ""

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("wiggle col=1 row=1", "unknown move"),
            ("switch col=1 row=1 letter=O flavor=nu", "missing"),
            ("switch col=1 row=9 letter=O flavor=nu dir=fwd", "outside"),
            ("switch col=1 row=1 letter=Z flavor=nu dir=fwd", "letter"),
            ("switch col=1 row=1 letter=O flavor=zeta dir=fwd", "flavor"),
            ("switch col=1 row=1 letter=O flavor=nu_tilde dir=fwd", "line 1: flavor must be nu$"),
            ("switch col=1 row=1 letter=O flavor=NU dir=fwd", "line 1: flavor must be nu$"),
            ("switch col=1 row=1 letter=O flavor= dir=fwd", "line 1: flavor must be nu$"),
            ("switch col=1 row=1 letter=O dir=fwd", r"line 1: switch is missing \['flavor'\]"),
            ("switch col=1 row=1 letter=O flavor=nu dir=up", "dir"),
            ("switch col=a row=1 letter=O flavor=nu dir=fwd", "non-integer"),
            ("switch col=1 col=2 row=1 letter=O flavor=nu dir=fwd", "duplicate"),
            ("switch col", "key=value"),
            ("quasistab side=beta", "has no field 'side'"),
            ("quasistab anchor=Q1", "anchor"),
            ("quasistab anchor=O9", "anchor"),
            ("quasistab anchor=O1 side=left", "side"),
            ("quasidestab", "anchor"),
            ("diskstab now", "no arguments"),
            ("diskdestab now", "no arguments"),
            ("renumber 1 1 2", "not a permutation"),
            ("renumber 1 two", "non-integer"),
        ],
    )
    def test_parse_errors(self, corpus, line, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_movie(line + "\n", corpus["unknot4_sites"])

    @pytest.mark.parametrize(
        "line, fragment",
        [
            (
                "switch col=1 row=1 letter=O flavor=nu dir=fwd extra=2",
                "switch has no field 'extra'",
            ),
            ("quasistab anchor=O1 sid=alpha", "quasistab has no field 'sid'"),
            ("quasidestab anchor=O1 side=alpha", "quasidestab has no field 'side'"),
            ("diskstab side=alpha", "diskstab takes no arguments"),
            ("diskdestab anchor=O1", "diskdestab takes no arguments"),
        ],
        ids=["switch", "quasistab", "quasidestab", "diskstab", "diskdestab"],
    )
    def test_unknown_fields_are_refused(self, corpus, line, fragment):
        with pytest.raises(ParseError, match=f"line 2: {fragment}"):
            parse_movie("# the move under test\n" + line + "\n", corpus["unknot4_sites"])

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("switch col=1 row=1 letter=O flavor=zeta dir=fwd", "flavor must be nu"),
            ("quasistab anchor=O1 side=left", "quasistab has no field 'side'"),
        ],
    )
    def test_move_value_errors_carry_the_line(self, corpus, line, fragment):
        with pytest.raises(ParseError, match=f"line 3: {fragment}"):
            parse_movie("diskstab\ndiskdestab\n" + line + "\n", corpus["unknot4_sites"])

    def test_parse_error_line_numbers(self, corpus):
        text = "# fine\ndiskstab\nwobble\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_movie(text, corpus["unknot2"])

    def test_comments_ignored(self, corpus):
        movie = parse_movie("# nothing\n\n# more nothing\n", corpus["unknot2"])
        assert movie.moves == ()
