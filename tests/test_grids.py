"""Grid diagram layer: validation, link tracing, switch sites, file formats."""
import itertools
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfloer import (
    GridDiagram,
    GridFloerError,
    InvalidSite,
    MarkingCollision,
    NonPermutation,
    ParseError,
    SizeTooSmall,
    SwitchSite,
    apply_switch,
    classify_band,
    corpus_grid,
    corpus_names,
    corpus_text,
    find_switch_sites,
    link_topology,
    parse_grid,
    random_grid,
    same_letter_neighbors,
    serialize_grid,
    site_diagonal,
    site_markings,
    validate,
)
from gridfloer.grids import _site_kind
from oracles import marking_position

# component count of every corpus entry
COMPONENTS = {
    "unknot2": 1,
    "unknot3": 1,
    "unknot4": 1,
    "unknot4_sites": 1,
    "hopf4": 2,
    "split2x2_2x2": 2,
    "trefoil5": 1,
    "trefoil6": 1,
    "split4x4_2x2": 2,
    "fig8_6": 1,
}

# (letter, col, row) of every valid switch site, in find_switch_sites order
SITES = {
    "unknot2": [],
    "unknot3": [],
    "unknot4": [],
    "unknot4_sites": [("O", 0, 0), ("O", 2, 2), ("X", 0, 2), ("X", 2, 0)],
    "hopf4": [
        ("O", 0, 0), ("O", 1, 1), ("O", 2, 2), ("O", 3, 3),
        ("X", 0, 2), ("X", 1, 3), ("X", 2, 0), ("X", 3, 1),
    ],
    "split2x2_2x2": [("O", 1, 1), ("O", 3, 3), ("X", 1, 3), ("X", 3, 1)],
    "trefoil5": [
        ("O", 0, 0), ("O", 1, 1), ("O", 2, 2), ("O", 3, 3), ("O", 4, 4),
        ("X", 0, 3), ("X", 1, 4), ("X", 2, 0), ("X", 3, 1), ("X", 4, 2),
    ],
    "trefoil6": [
        ("O", 0, 0), ("O", 1, 1), ("O", 2, 2), ("O", 3, 3), ("O", 5, 5),
        ("X", 0, 3), ("X", 2, 0), ("X", 5, 2),
    ],
    "split4x4_2x2": [("O", 3, 3), ("O", 5, 5), ("X", 5, 3)],
    "fig8_6": [
        ("O", 0, 0), ("O", 2, 2), ("O", 4, 4),
        ("X", 1, 5), ("X", 3, 3), ("X", 5, 1),
    ],
}


def _site(t):
    letter, col, row = t
    return SwitchSite(col=col, row=row, letter=letter)


def _transpose(g):
    """The grid with the roles of rows and columns swapped."""
    o_t, x_t = [0] * g.n, [0] * g.n
    for r in range(g.n):
        o_t[g.o_col[r]] = r
        x_t[g.x_col[r]] = r
    return GridDiagram(g.n, tuple(o_t), tuple(x_t))


class TestValidate:
    def test_roundtrip_fields(self):
        g = validate((1, 0), (0, 1))
        assert (g.n, g.o_col, g.x_col) == (2, (1, 0), (0, 1))

    def test_length_mismatch(self):
        with pytest.raises(NonPermutation):
            validate((0, 1, 2), (1, 0))

    def test_not_a_permutation(self):
        with pytest.raises(NonPermutation):
            validate((0, 0, 1), (1, 2, 0))

    def test_row_collision(self):
        with pytest.raises(MarkingCollision):
            validate((0, 1), (0, 1))

    def test_too_small(self):
        with pytest.raises(SizeTooSmall):
            validate((0,), (0,))

    def test_the_constructor_refuses_a_non_grid(self):
        # link_topology never returns on this one, so it is refused here
        with pytest.raises(NonPermutation, match=r"^O columns \[1, 1, 2\] are not a permutation of 1..3$"):
            GridDiagram(3, (0, 0, 1), (1, 2, 0))

    @pytest.mark.parametrize(
        "o, x", [((0, 1, 2), (1, 0)), ((0,), (0,)), ((1, 2, 0), (1, 0, 2)), ((0, 1), (0, 1))]
    )
    def test_the_constructor_checks_as_validate_does(self, o, x):
        with pytest.raises(GridFloerError) as want:
            validate(o, x)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            GridDiagram(len(o), o, x)

    def test_the_size_must_match_the_columns(self):
        with pytest.raises(NonPermutation, match="grid size 4 does not match the 3 marking columns"):
            GridDiagram(4, (0, 1, 2), (1, 2, 0))

    def test_marking_positions_and_names(self):
        g = corpus_grid("hopf4")
        assert marking_position(g, 0) == (g.o_col[0], 0)
        assert marking_position(g, g.n + 2) == (g.x_col[2], 2)
        assert g.marking_name(0) == "O1"
        assert g.marking_name(g.n + 3) == "X4"
        with pytest.raises(ValueError):
            marking_position(g, 2 * g.n)

    def test_transpose_involution(self, corpus):
        for g in corpus.values():
            t = _transpose(g)
            assert _transpose(t) == g
            # markings land at transposed positions
            markers = {marking_position(t, k) for k in range(2 * t.n)}
            for m in range(2 * g.n):
                c, r = marking_position(g, m)
                assert (r, c) in markers


class TestTopology:
    def test_component_counts(self, corpus):
        for name, g in corpus.items():
            assert link_topology(g).component_count == COMPONENTS[name], name

    def test_transpose_preserves_components(self, corpus):
        for name, g in corpus.items():
            assert (
                link_topology(_transpose(g)).component_count == COMPONENTS[name]
            ), name

    def test_arcs_partition_markings(self, corpus):
        for g in corpus.values():
            topo = link_topology(g)
            seen = [m for cyc in topo.arcs for m in cyc]
            assert sorted(seen) == list(range(2 * g.n))
            for m, comp in topo.component_of.items():
                assert m in topo.arcs[comp]

    def test_arcs_alternate_letters(self, corpus):
        # every step flips O <-> X, so all cycles have even length
        for g in corpus.values():
            for cyc in link_topology(g).arcs:
                assert len(cyc) % 2 == 0
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert (a < g.n) != (b < g.n)

    def test_frozen_cycles(self):
        assert link_topology(corpus_grid("unknot2")).arcs == ((0, 3, 1, 2),)
        assert link_topology(corpus_grid("trefoil5")).arcs == (
            (0, 8, 3, 6, 1, 9, 4, 7, 2, 5),
        )

    def test_marking_successor_follows_arcs(self, corpus):
        # along an arc, an O is followed by the X in its column and an X by
        # the O in its row
        for g in corpus.values():
            for cyc in link_topology(g).arcs:
                for m, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                    if m < g.n:
                        assert nxt >= g.n and g.x_col[nxt - g.n] == g.o_col[m]
                    else:
                        assert nxt == m - g.n

    def test_same_letter_neighbors(self):
        assert same_letter_neighbors(corpus_grid("unknot2"), 0) == (1, 1)
        assert same_letter_neighbors(corpus_grid("trefoil5"), 0) == (3, 2)
        g = corpus_grid("hopf4")
        for m in range(2 * g.n):
            fwd, bwd = same_letter_neighbors(g, m)
            assert (fwd < g.n) == (m < g.n) and (bwd < g.n) == (m < g.n)



class TestSwitchSites:
    def test_frozen_site_tables(self, corpus):
        for name, g in corpus.items():
            got = [(s.letter, s.col, s.row) for s in find_switch_sites(g)]
            assert got == SITES[name], name

    def test_ordering(self, corpus):
        for g in corpus.values():
            keys = [(s.letter, s.col, s.row) for s in find_switch_sites(g)]
            assert keys == sorted(keys)

    def test_site_exists_and_markings(self, corpus):
        for name, g in corpus.items():
            for t in SITES[name]:
                s = _site(t)
                assert _site_kind(g, s) is not None
                m1, m2 = site_markings(g, s)
                base = 0 if s.letter == "O" else g.n
                rows = {m1 - base, m2 - base}
                assert rows == {s.row, (s.row + 1) % g.n}
                assert site_diagonal(g, s) in ("main", "anti")

    def test_invalid_site_raises(self):
        g = corpus_grid("trefoil5")
        bad = SwitchSite(col=1, row=0, letter="O")
        assert _site_kind(g, bad) is None
        for fn in (site_diagonal, site_markings, apply_switch):
            with pytest.raises(InvalidSite):
                fn(g, bad)
        assert _site_kind(g, SwitchSite(col=0, row=0, letter="Q")) is None

    def test_site_lookup_matches_marking_positions(self, corpus):
        # the block's diagonal read off two rows against the set of positions
        for name, g in corpus.items():
            n = g.n
            for letter, cols in (("O", g.o_col), ("X", g.x_col)):
                pos = {(cols[r], r) for r in range(n)}
                for c in range(n):
                    for r in range(n):
                        c2, r2 = (c + 1) % n, (r + 1) % n
                        main = (c, r) in pos and (c2, r2) in pos
                        anti = (c2, r) in pos and (c, r2) in pos
                        want = "main" if main else "anti" if anti else None
                        s = SwitchSite(c, r, letter)
                        assert _site_kind(g, s) == want, (name, s)

    def test_out_of_range_blocks_are_invalid(self, corpus):
        # no wrap-around for -1 or n, even next to a real site
        for name, g in corpus.items():
            n = g.n
            for letter in ("O", "X"):
                for i in range(n):
                    for col, row in ((-1, i), (n, i), (i, -1), (i, n)):
                        s = SwitchSite(col, row, letter)
                        assert _site_kind(g, s) is None, (name, s)
                        for fn in (site_diagonal, site_markings, apply_switch):
                            with pytest.raises(InvalidSite):
                                fn(g, s)

    def test_switch_is_involution(self, corpus):
        for name, g in corpus.items():
            for t in SITES[name]:
                s = _site(t)
                assert apply_switch(apply_switch(g, s), s) == g

    def test_switch_changes_components_by_one(self, corpus):
        # a switch always splits one component or merges two
        for name, g in corpus.items():
            l_before = link_topology(g).component_count
            for t in SITES[name]:
                l_after = link_topology(apply_switch(g, _site(t))).component_count
                assert abs(l_after - l_before) == 1, (name, t)

    def test_band_classification(self, corpus):
        # type I <=> both markings on one component <=> the switch splits it
        for name, g in corpus.items():
            l_before = link_topology(g).component_count
            for t in SITES[name]:
                s = _site(t)
                bc = classify_band(g, s)
                assert bc.oriented
                l_after = link_topology(apply_switch(g, s)).component_count
                assert (bc.band_type == "I") == (l_after == l_before + 1)

    def test_band_types_frozen(self):
        assert {classify_band(corpus_grid("trefoil5"), _site(t)).band_type
                for t in SITES["trefoil5"]} == {"I"}
        assert {classify_band(corpus_grid("hopf4"), _site(t)).band_type
                for t in SITES["hopf4"]} == {"II"}

    def test_unknot2_blocks_all_collide(self):
        # the 2x2 unknot has same-letter diagonals, but every switch collides
        g = corpus_grid("unknot2")
        for letter in ("O", "X"):
            assert any(_site_kind(g, SwitchSite(c, r, letter)) for c in range(2) for r in range(2))
        assert find_switch_sites(g) == []

    def test_sites_match_the_brute_force(self, corpus, rng):
        grids = list(corpus.values())
        grids += [random_grid(n, rng) for n in range(2, 9) for _ in range(150)]
        for g in grids:
            got = [(s.letter, s.col, s.row) for s in find_switch_sites(g)]
            assert got == _brute_force_sites(g), g


def _brute_force_sites(g):
    """(letter, col, row) of every block, in that order, whose diagonal
    holds two markings of the letter and whose switched grid validates."""
    n, out = g.n, []
    for letter, cols in (("O", g.o_col), ("X", g.x_col)):
        pos = {(cols[r], r) for r in range(n)}
        for c, r in itertools.product(range(n), repeat=2):
            c2, r2 = (c + 1) % n, (r + 1) % n
            if {(c, r), (c2, r2)} <= pos or {(c2, r), (c, r2)} <= pos:
                swapped = list(cols)
                swapped[r], swapped[r2] = swapped[r2], swapped[r]
                try:
                    validate(*((swapped, g.x_col) if letter == "O" else (g.o_col, swapped)))
                except MarkingCollision:
                    continue
                out.append((letter, c, r))
    return out


class TestRandomGrid:
    @given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
    def test_random_grids_are_valid(self, n, rng):
        g = random_grid(n, rng)
        assert validate(g.o_col, g.x_col) == g

    def test_too_small(self, rng):
        with pytest.raises(SizeTooSmall):
            random_grid(1, rng)

    def test_deterministic_given_seed(self):
        import random

        a = random_grid(6, random.Random(42))
        b = random_grid(6, random.Random(42))
        assert a == b


class TestFileFormat:
    def test_corpus_roundtrip(self, corpus):
        for name, g in corpus.items():
            assert parse_grid(corpus_text(name)) == g
            assert parse_grid(serialize_grid(g)) == g

    def test_json_route_matches_text_route(self, corpus):
        for g in corpus.values():
            blob = json.dumps({"n": g.n, "o": list(g.o_col), "x": list(g.x_col)})
            assert parse_grid(blob) == g

    def test_comments_and_blank_lines(self):
        text = "# a knot\n\nn = 2\nO = 1 2\n# interlude\nX = 2 1\n"
        assert parse_grid(text) == corpus_grid("unknot2")

    def test_corpus_names_list(self):
        names = corpus_names()
        assert sorted(names) == sorted(COMPONENTS)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("n = 2\nO = 1 2\n", "needs"),
            ("n = 2\nO = 1 2\nX = 2 1\nY = 1 2\n", "unknown key"),
            ("n = 2\nO = 1 2\nO = 2 1\nX = 2 1\n", "duplicate"),
            ("n = 9\nn = 2\nO = 1 2\nX = 2 1\n", "line 2: duplicate `n` line"),
            ("n = 2\nO = 1 two\nX = 2 1\n", "non-integer"),
            ("n = 2 2\nO = 1 2\nX = 2 1\n", "single integer"),
            ("n = 2\nO = 1 2 3\nX = 2 1\n", "entries"),
            ("n = 2\nO = 1 3\nX = 2 1\n", "outside"),
            ("n = 2\nO = 1 2\nX = 1 2\n", "invalid grid"),
            ("n = 2\nO 1 2\nX = 2 1\n", "key = value"),
            ('{"n": 3, "o": [1, 0], "x": [0, 1]}', "does not match"),
            ('{"n": 2, "o": [1, 0]}', "needs keys"),
            ('{"n": 2, "o": [1, 0], "x": ', "bad JSON"),
            ('{"n": 2, "o": [0, 1.9], "x": [1, 0.2]}', "list of integers"),
            ('{"n": 2, "o": [false, true], "x": [true, false]}', "list of integers"),
            ('{"n": 2.0, "o": [0, 1], "x": [1, 0]}', '"n" must be an integer'),
            ('{"n": 2, "o": ["0", " 1"], "x": [1, 0]}', "list of integers"),
            ('{"n": 2, "o": "01", "x": [1, 0]}', "list of integers"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_grid(text)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_grid("n = 2\nO = 1 2\nX = zap\n")

    def test_serialize_is_one_indexed(self):
        out = serialize_grid(GridDiagram(2, (1, 0), (0, 1)))
        assert out == "n = 2\nO = 2 1\nX = 1 2\n"
