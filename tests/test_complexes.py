"""State enumeration, gradings, rectangles, and the two boundary builders."""
import gc
import itertools
import operator
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from array import array
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gridfloer
import oracles
from gridfloer import (
    DEFAULT_STATE_CAP,
    CapExceeded,
    DiskStab,
    GradedBasis,
    GridDiagram,
    MonomialComplex,
    U,
    boundary_squared,
    boundary_squares_to_zero,
    build_complex,
    build_gc_prime,
    corpus_grid,
    corpus_grids,
    delta_grading,
    disk_stab_map,
    enumerate_states,
    expected_curvature,
    homology,
    quasi_stab_map,
    random_grid,
    validate,
    verify_curvature,
)
from gridfloer import complexes
from gridfloer.algebra import _columns
from gridfloer.cobordism import _restacked
from gridfloer.complexes import _GC_PRIME_ALIVE, _build_gc_prime
from gridfloer.errors import BrokenInvariant, NonPermutation, NotHomogeneous
from oracles import candidate_rectangles, marking_position, rectangles, specialize

# doubled delta gradings of the 5x5 trefoil states, as a multiset
TREFOIL5_GRADINGS = {0: 20, 2: 82, 4: 16, 6: 2}

# the frozen 3x3 unknot complex: its entries U^k as {(src, tgt): k}, and
# the number of states in each doubled grading
UNKNOT3_ENTRIES = {
    ((0, 1, 2), (0, 2, 1)): 1,
    ((0, 1, 2), (1, 0, 2)): 1,
    ((0, 1, 2), (2, 1, 0)): 1,
    ((1, 2, 0), (0, 2, 1)): 0,
    ((1, 2, 0), (1, 0, 2)): 0,
    ((1, 2, 0), (2, 1, 0)): 0,
    ((2, 0, 1), (0, 2, 1)): 1,
    ((2, 0, 1), (1, 0, 2)): 1,
    ((2, 0, 1), (2, 1, 0)): 1,
}
UNKNOT3_RANKS = {2: 1, 0: 5}


def _small_grids(rng, count, sizes=(2, 3, 4)):
    return [random_grid(rng.choice(sizes), rng) for _ in range(count)]


class TestStates:
    @pytest.mark.parametrize("n, count", [(2, 2), (3, 6), (5, 120)])
    def test_counts(self, n, count):
        assert len(enumerate_states(n)) == count

    def test_lexicographic(self):
        states = enumerate_states(4)
        assert states == sorted(states)
        assert states[0] == (0, 1, 2, 3)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_states(DEFAULT_STATE_CAP + 1)
        with pytest.raises(CapExceeded):
            enumerate_states(5, cap=4)


def _closed_form_basis(g):
    """The states in enumeration order with their closed-form gradings,
    sorted stably by grading, highest first."""
    graded = [(s, oracles.delta_grading_pairs(g, s)) for s in enumerate_states(g.n)]
    return tuple(sorted(graded, key=lambda e: -e[1]))


class TestGrading:
    def test_two_by_two_gap_is_zero(self):
        g = corpus_grid("unknot2")
        assert [delta_grading(g, s) for s in enumerate_states(2)] == [0, 0]

    def test_trefoil_multiset(self):
        g = corpus_grid("trefoil5")
        got = Counter(delta_grading(g, s) for s in enumerate_states(5))
        assert dict(got) == TREFOIL5_GRADINGS

    def test_builders_grade_by_the_closed_form(self, corpus, gc_primes, multi_complexes):
        for name, g in corpus.items():
            want = _closed_form_basis(g)
            assert gc_primes[name].basis.elements == want, name
            if name in multi_complexes:
                assert multi_complexes[name].basis.elements == want, name

    def test_doubled_values_are_even_when_homology_is(self, gc_primes):
        # every corpus entry lands in even doubled gradings
        for name, c in gc_primes.items():
            assert all(d % 2 == 0 for _, d in c.basis.elements), name

    def test_translation_invariance(self, rng):
        # the grading multiset ignores which fundamental domain is cut
        for g in _small_grids(rng, 6, sizes=(3, 4)):
            rows = GridDiagram(
                g.n,
                tuple(g.o_col[(r + 1) % g.n] for r in range(g.n)),
                tuple(g.x_col[(r + 1) % g.n] for r in range(g.n)),
            )
            cols = GridDiagram(
                g.n,
                tuple((c + 1) % g.n for c in g.o_col),
                tuple((c + 1) % g.n for c in g.x_col),
            )
            base = Counter(delta_grading(g, s) for s in enumerate_states(g.n))
            for t in (rows, cols):
                moved = Counter(delta_grading(t, s) for s in enumerate_states(t.n))
                assert moved == base


    @pytest.mark.parametrize("n", range(2, 9))
    def test_pair_table_counts_every_state(self, n):
        # the factorial-base table against the pair count, state by state
        table, states = complexes._pair_counts(n), list(itertools.permutations(range(n)))
        assert len(table) == len(states)
        assert [table[s] for s in states] == [
            2 * sum(itertools.starmap(operator.lt, itertools.combinations(s, 2))) for s in states
        ]

    def test_gradings_match_the_pair_oracle(self, corpus, rng):
        grids = [g for g in corpus.values() if g.n <= 6]
        grids += [random_grid(n, rng) for n in (2, 3, 4, 5, 6) for _ in range(2)]
        for g in grids:
            states = enumerate_states(g.n)
            want = [oracles.delta_grading_pairs(g, s) for s in states]
            assert [delta_grading(g, s) for s in states] == want, g
            assert delta_grading(g, list(states[-1])) == want[-1]  # a state as a list

    def test_a_state_above_the_cap_is_counted_without_a_table(self, monkeypatch, rng):
        def refused(n):
            raise AssertionError(f"a table of {n}! states")

        monkeypatch.setattr(complexes, "_pair_counts", refused)
        g = random_grid(DEFAULT_STATE_CAP + 1, rng)
        for _ in range(3):
            state = tuple(rng.sample(range(g.n), g.n))
            assert delta_grading(g, state) == oracles.delta_grading_pairs(g, state)

    @pytest.mark.parametrize(
        "state", [(0, 0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 5), [1, 1, 2, 3, 4]]
    )
    def test_a_non_state_is_refused(self, state):
        g = corpus_grid("trefoil5")
        with pytest.raises(NonPermutation, match=rf"state \({', '.join(map(str, state))}\) is not"):
            delta_grading(g, state)

    def test_a_non_state_above_the_cap_is_refused(self, rng):
        g = random_grid(DEFAULT_STATE_CAP + 1, rng)
        for state in [(0,) * g.n, tuple(range(g.n - 1)), tuple(range(1, g.n + 1))]:
            with pytest.raises(NonPermutation, match=f"is not a permutation of 0..{g.n - 1}"):
                delta_grading(g, state)


def _table_fault(monkeypatch, grid, c, r, by):
    """Let every build of `grid` read its grading table off by `by` at the
    lattice point (c, r); other grids read theirs unchanged."""
    real = complexes._grid_grading_part

    def faulty(g):
        table, const = real(g)
        if g == grid:
            table[c][r] += by
        return table, const

    monkeypatch.setattr(complexes, "_grid_grading_part", faulty)


def _brute_weight(g, rect):
    ev = rect.weight
    for r in range(g.n):
        for m, c in ((r, g.o_col[r]), (g.n + r, g.x_col[r])):
            assert ev.get(m) == (1 if rect.contains_cell(c, r) else 0)


def _brute_interior(x, rect):
    n = rect.n
    count = 0
    for c in range(n):
        dc = (c - rect.c1) % n
        if 0 < dc < rect.width and 0 < (x[c] - rect.r1) % n < rect.height:
            count += 1
    assert rect.interior_points == count


def _euler_cases():
    """The corpus, then three grids each at n = 5, 6, 7 drawn in order from
    one seeded generator."""
    rng = random.Random(20260814)
    cases = list(corpus_grids().items())
    for n in (5, 6, 7):
        cases += [(f"random{n}-{i}", random_grid(n, rng)) for i in range(3)]
    return cases


def _states_euler(c) -> int:
    """sum over generators of (-1)^(grading/2), gradings doubled"""
    return sum((-1) ** (d // 2 % 2) for _, d in c.basis.elements)


def _summary_euler(summary) -> int:
    """The same signed count read off the homology: a tower at g brings
    (-1)^(g/2); a U^k summand at t is a generator at t and one at t - 2k + 2
    whose boundary is U^k times it, so it brings (-1)^(t/2) (1 + (-1)^(k-1))."""
    total = 0
    for g, (free, torsion) in summary.to_dict().items():
        sign = (-1) ** (g // 2 % 2)
        total += sign * free
        total += sum(sign * (1 + (-1) ** (k - 1)) for k in torsion)
    return total


class TestEulerCharacteristic:
    """The graded Euler characteristic at t = -1 against the grid matrix.

    By Manolescu-Ozsvath-Sarkar the Euler characteristic of the grid
    complex is the Alexander polynomial times a power of (1 - t), read off
    the n x n matrix of t^(winding number).  At t = -1 only the winding
    number mod 2 matters, so the count is orientation-free:
    |sum_x (-1)^(delta(x)/2)| = |det A(-1)| = det(L) 2^(n-1).
    """

    def test_states_sum_is_the_winding_determinant(self):
        for name, g in _euler_cases():
            got = _states_euler(build_gc_prime(g))
            assert abs(got) == oracles.winding_determinant_at_minus_one(g), name

    def test_homology_keeps_the_states_sum(self):
        for name, g in _euler_cases():
            c = build_gc_prime(g)
            assert _summary_euler(homology(c)) == _states_euler(c), name

    def test_stabilized_complexes_keep_the_states_sum(self, corpus):
        # the quasi summand doubles the count; the disk summand's two
        # generators carry opposite signs
        for name, g in corpus.items():
            c = build_gc_prime(g)
            quasi = quasi_stab_map(c, 0).tgt
            disk = disk_stab_map(c).tgt
            plain_quasi, plain_disk = oracles.materialize(quasi)[0], oracles.materialize(disk)[0]
            assert _summary_euler(homology(quasi)) == _states_euler(plain_quasi), name
            assert _states_euler(plain_quasi) == 2 * _states_euler(c), name
            assert _summary_euler(homology(disk)) == _states_euler(plain_disk) == 0, name

    def test_even_torsion_cancels(self):
        # d z = U^2 y: one U^2 summand at the grading of y, whose two
        # generators carry opposite signs
        c = oracles.complex_from_rows(GradedBasis((("y", 4), ("z", 2))), {"z": {"y": U * U}}, 2)
        assert homology(c).to_dict() == {4: (0, (2,))}
        assert _summary_euler(homology(c)) == _states_euler(c) == 0

    def test_link_determinants(self, corpus):
        # |det A(-1)| = det(L) 2^(n-1)
        dets = {
            "unknot2": 1, "unknot3": 1, "unknot4": 1, "unknot4_sites": 1,
            "trefoil5": 3, "trefoil6": 3, "fig8_6": 5, "hopf4": 2,
            "split2x2_2x2": 0, "split4x4_2x2": 0,
        }
        got = {n: oracles.winding_determinant_at_minus_one(g) for n, g in corpus.items()}
        assert got == {n: d * 2 ** (corpus[n].n - 1) for n, d in dets.items()}


class TestRectangles:
    def test_pair_structure(self):
        g = corpus_grid("hopf4")
        states = enumerate_states(4)
        for x, y in itertools.product(states, repeat=2):
            cands = candidate_rectangles(g, x, y)
            diff = [c for c in range(4) if x[c] != y[c]]
            if len(diff) == 2 and y[diff[0]] == x[diff[1]] and y[diff[1]] == x[diff[0]]:
                assert len(cands) == 2
                assert len(cands) + len(candidate_rectangles(g, y, x)) == 4
            else:
                assert cands == []
            assert all(r.interior_points == 0 for r in rectangles(g, x, y))

    def test_no_self_rectangles(self):
        g = corpus_grid("unknot3")
        for x in enumerate_states(3):
            assert candidate_rectangles(g, x, x) == []

    def test_complementary_extents(self):
        g = corpus_grid("trefoil5")
        x = (0, 1, 2, 3, 4)
        y = (2, 1, 0, 3, 4)
        a, b = candidate_rectangles(g, x, y)
        assert a.width + b.width == g.n
        assert a.height + b.height == g.n

    @given(st.randoms(use_true_random=False))
    def test_brute_force_weights_and_interiors(self, rng):
        g = random_grid(rng.choice((2, 3, 4, 5)), rng)
        states = enumerate_states(g.n)
        for _ in range(10):
            x = rng.choice(states)
            y = rng.choice(states)
            for rect in candidate_rectangles(g, x, y):
                assert rect.width and rect.height
                _brute_weight(g, rect)
                _brute_interior(x, rect)


class TestBuilders:
    def test_direct_build_matches_specialized_multivariable(
        self, corpus, gc_primes, multi_complexes
    ):
        # both builders read one rectangle pattern, so this checks the two
        # coefficient rules on it; the pattern is checked by TestWalkOracle
        for name, multi in multi_complexes.items():
            direct = gc_primes[name]
            via = specialize(multi, "all")
            assert via.basis == direct.basis, name
            assert via.boundary == direct.boundary, name
            assert via.marking_count == direct.marking_count == 2 * corpus[name].n

    def test_squares_to_zero_and_homogeneous(self, gc_primes):
        for name, c in gc_primes.items():
            assert boundary_squares_to_zero(c), name
            assert oracles.is_homogeneous(c.basis, c.boundary), name

    def test_entry_grading_relation(self, gc_primes):
        # src - tgt = 2 - 2k for an entry U^k
        for name, c in gc_primes.items():
            grading = c.basis.to_dict()
            for src, tgt, p in c.entries():
                (k,) = p.terms
                assert grading[src] - grading[tgt] == 2 - 2 * k, name

    @given(st.randoms(use_true_random=False))
    def test_random_grids_give_complexes(self, rng):
        g = random_grid(rng.choice((2, 3, 4)), rng)
        c = build_gc_prime(g)
        assert boundary_squares_to_zero(c)
        assert oracles.is_homogeneous(c.basis, c.boundary)

    def test_cap_respected(self):
        with pytest.raises(CapExceeded):
            build_gc_prime(corpus_grid("trefoil5"), cap=4)
        with pytest.raises(CapExceeded):
            build_complex(corpus_grid("trefoil5"), cap=4)

    def test_multivariable_uses_all_markings(self, multi_complexes, corpus):
        for name, c in multi_complexes.items():
            n = corpus[name].n
            seen = set()
            for _, _, codes in c.entries():
                for ev in map(oracles.vector, codes):
                    seen.update(ev.variables())
            assert seen <= set(range(2 * n))

    def test_homology_leaves_the_stored_columns_unchanged(self, gc_primes):
        c = gc_primes["trefoil5"]
        stored = list(c.columns)
        first = homology(c)
        assert _columns(c) is c.columns and c.columns == stored
        assert homology(c) == first

    def test_grading_off_by_two_breaks_grading(self, monkeypatch):
        # the states through x0's point in column 0 graded 2 higher
        g = corpus_grid("trefoil5")
        x0 = next(x for x, _, _ in _build_gc_prime(g).entries())
        _table_fault(monkeypatch, g, 0, x0[0], -2)
        with pytest.raises(NotHomogeneous, match="breaks grading"):
            _build_gc_prime(g)


@pytest.fixture(scope="module")
def walk_cases(corpus):
    """(name, grid, oracle boundary, oracle basis) on the corpus up to
    n = 5 and six seeded n = 6 grids."""
    grids = [(name, g) for name, g in corpus.items() if g.n <= 5]
    rng = random.Random(20260814)
    grids += [(("seeded", i), random_grid(6, rng)) for i in range(6)]
    return [
        (
            name,
            g,
            oracles.rectangle_boundary(g),
            _closed_form_basis(g),
        )
        for name, g in grids
    ]


class TestWalkOracle:
    """Both builders against the reference walk, one candidate pair at a
    time."""

    def test_multivariable_build(self, walk_cases):
        for name, g, want, graded in walk_cases:
            c = build_complex(g)
            assert c.boundary == oracles.coded(want), name
            assert c.basis.elements == graded, name

    def test_single_variable_build(self, walk_cases):
        for name, g, want, graded in walk_cases:
            c = _build_gc_prime(g)
            via = specialize(oracles.MultiComplex(c.basis, want, 2 * g.n), "all")
            assert c.boundary == via.boundary, name
            assert c.basis.elements == graded, name


def _oracle_cases(corpus):
    """The corpus, then six n = 6 and two n = 7 grids drawn in order from
    one seeded generator."""
    rng = random.Random(20260814)
    cases = list(corpus.items())
    cases += [(("seeded", 6, i), random_grid(6, rng)) for i in range(6)]
    cases += [(("seeded", 7, i), random_grid(7, rng)) for i in range(2)]
    return cases


class TestLabelRowOracle:
    """The grading-ordered columns against the label-row builder they
    replaced, which `_columns` converts and checks entry by entry."""

    def test_columns_boundary_and_homology(self, corpus):
        for name, g in _oracle_cases(corpus):
            c = _build_gc_prime(g)
            want = oracles.label_row_gc_prime(g)
            assert _columns(c) == _columns(want), name
            assert c.boundary == want.boundary, name
            assert homology(c) == homology(want), name


def _entry_made_twin(monkeypatch, g, x0, y0, other):
    """Let the builders read a copy of the rectangle pattern of g's size in
    which the entry x0 -> y0, of class k, is a twin of classes k and
    other(k) instead."""
    corners, offsets, targets, classes, twins = complexes._rectangle_pattern(g.n)
    states = enumerate_states(g.n)
    j, y = states.index(x0), states.index(y0)
    i = next(i for i in range(offsets[j], offsets[j + 1]) if targets[i] == y)
    edited = (
        corners,
        array(offsets.typecode, (o - (o > i) for o in offsets)),
        targets[:i] + targets[i + 1 :],
        classes[:i] + classes[i + 1 :],
        twins + array(twins.typecode, (j, y, classes[i], other(classes[i]))),
    )
    monkeypatch.setattr(complexes, "_rectangle_pattern", lambda n: edited)


def _one_rectangle_entry(c):
    """The first (source, target) whose entry comes from one rectangle."""
    return next((x, y) for x, y, e in c.entries() if c.masks is None or len(e) == 1)


class TestOnePassRows:
    """Each row is made in one pass over the rectangle pattern, keyed by
    basis labels; a target reached twice (a twin) is resolved by the
    builder."""

    BUILDERS = {"single": _build_gc_prime, "multi": build_complex}

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_keys_are_basis_labels(self, corpus, builder):
        grids = list(corpus.values()) + [random_grid(6, random.Random(20260814))]
        for g in grids:
            c = self.BUILDERS[builder](g)
            labels = {id(lab) for lab in c.basis.labels()}
            for src, tgt, _ in c.entries():
                assert id(src) in labels and id(tgt) in labels, (g, src, tgt)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_repeated_rectangle_cancels(self, monkeypatch, builder):
        g = corpus_grid("trefoil5")
        build = self.BUILDERS[builder]
        c = build(g)
        want = c.boundary
        x0, y0 = _one_rectangle_entry(c)
        _entry_made_twin(monkeypatch, g, x0, y0, lambda k: k)
        got = build(g).boundary
        assert y0 not in got.get(x0, {})
        want[x0] = {y: e for y, e in want[x0].items() if y != y0}
        assert got == {x: row for x, row in want.items() if row}


class TestRectanglePattern:
    """One rectangle pattern per grid size, made on the first build of
    that size and read by every later one."""

    def test_cap_checked_before_any_pattern(self):
        g = corpus_grid("trefoil5")
        before = complexes._rectangle_pattern.cache_info()
        for build in (build_gc_prime, build_complex):
            with pytest.raises(CapExceeded):
                build(g, cap=4)
        assert complexes._rectangle_pattern.cache_info() == before

    def test_grading_fault_on_a_cached_size(self, monkeypatch):
        first, second = corpus_grid("trefoil5"), random_grid(5, random.Random(3))
        assert first != second
        _build_gc_prime(first)
        x0 = next(x for x, _, _ in _build_gc_prime(second).entries())
        misses = complexes._rectangle_pattern.cache_info().misses
        _table_fault(monkeypatch, second, 0, x0[0], -2)
        with pytest.raises(NotHomogeneous, match="breaks grading"):
            _build_gc_prime(second)
        assert complexes._rectangle_pattern.cache_info().misses == misses

    def test_two_grids_of_one_size_read_one_pattern(self):
        # whatever earlier builds cached: the builds of one size hold one
        # pattern object, made at most once, and the multivariable build
        # makes none of its own
        made = complexes._rectangle_pattern.cache_info().misses
        first = _build_gc_prime(corpus_grid("trefoil5"))
        second = _build_gc_prime(random_grid(5, random.Random(3)))
        build_complex(random_grid(5, random.Random(4)))
        assert first.grid != second.grid
        assert first.order.pattern is second.order.pattern
        assert complexes._rectangle_pattern.cache_info().misses - made <= 1


def _outcome(build, g):
    """The basis and columns a build of g returns, or the message of the
    NotHomogeneous it raises."""
    try:
        c = build(g)
    except NotHomogeneous as exc:
        return str(exc)
    return c.basis.elements, c.columns


def _read_through_a_stack(g):
    """A build of g whose columns are made by a first read through a stack
    of it, and kept by the build."""
    c = _build_gc_prime(g)
    cols = _restacked(c, (DiskStab(),)).columns
    assert c.columns is cols
    return c


class TestPerEntryOracle:
    """The class-by-class check against the per-entry one it replaced: the
    same verdict, and the same message, on sound and faulty gradings."""

    def test_corpus_and_seeded_grids(self, corpus):
        rng = random.Random(20261020)
        grids = list(corpus.items())
        grids += [((n, i), random_grid(n, rng)) for n in range(3, 8) for i in range(10)]
        for name, g in grids:
            want = _outcome(oracles.per_entry_gc_prime, g)
            assert not isinstance(want, str), name
            assert _outcome(_build_gc_prime, g) == want, name
            assert _outcome(_read_through_a_stack, g) == want, name

    @pytest.mark.parametrize("name", sorted(corpus_grids()))
    def test_single_point_table_faults(self, monkeypatch, name):
        g, failed = corpus_grid(name), 0
        for c, r, by in itertools.product(range(g.n), range(g.n), (2, -1)):
            with monkeypatch.context() as m:
                _table_fault(m, g, c, r, by)
                want = _outcome(oracles.per_entry_gc_prime, g)
                assert _outcome(_build_gc_prime, g) == want, (c, r, by)
            failed += isinstance(want, str)
        # every fault is seen, except at n = 2, where every rectangle is a twin
        assert failed == (2 * g.n * g.n if g.n > 2 else 0)

    def test_twin_of_mixed_weights(self, monkeypatch):
        # the oracle checks every twin's weights; the build reads no twin,
        # whose weights agree on every grid (TestClassGapForm)
        g = corpus_grid("trefoil5")
        x0, y0 = _one_rectangle_entry(_build_gc_prime(g))
        corners = complexes._rectangle_pattern(g.n)[0]
        weights = [m.bit_count() for m in complexes._class_masks(g, corners)]
        with monkeypatch.context() as m:
            _entry_made_twin(m, g, x0, y0, lambda k: k)
            want = _outcome(_build_gc_prime, g)
        _entry_made_twin(monkeypatch, g, x0, y0, lambda k: weights.index(weights[k] + 1))
        assert "mixed weights" in _outcome(oracles.per_entry_gc_prime, g)
        assert _outcome(_build_gc_prime, g) == want


def _class_number(n):
    """(a, b, s, t) -> the pattern's number of that class of size n."""
    corners = complexes._rectangle_pattern(n)[0]
    return {(a, b, s, (s + h) % n): k for k, (a, b, s, h) in enumerate(zip(*corners))}


class TestClassGapForm:
    """The classes in use and their gaps in closed form, and the twin
    class pairs, against the pattern's own entries, at every size the
    default cap allows."""

    @pytest.mark.parametrize("n", range(2, DEFAULT_STATE_CAP + 1))
    def test_gaps_match_the_pattern(self, n):
        in_use, gaps, _ = oracles._class_gaps(n, complexes._rectangle_pattern(n))
        form = complexes._gaps_in_use(n)
        assert [(k, gap) for k, *_, gap in form] == sorted(zip(in_use, gaps))
        number = _class_number(n)
        assert all(number[a, b + n * (b <= a), s, t] == k for k, a, b, s, t, _ in form)
        assert len(in_use) == n * n * (n - 1) * (n - 2) // 2

    @pytest.mark.parametrize("n", range(2, DEFAULT_STATE_CAP + 1))
    def test_twin_pairs_are_each_class_and_its_complement(self, n):
        # b < n and w + h = n, paired with columns b to a + n and rows t to s + n
        number = _class_number(n)
        want = {
            (k, number[b, a + n, t, s])
            for (a, b, s, t), k in number.items()
            if b < n and b - a + (t - s) % n == n
        }
        twins = complexes._rectangle_pattern(n)[4]
        assert set(zip(twins[2::4], twins[3::4])) == want
        assert len(want) == n * n * (n - 1) // 2

    def test_twin_classes_cover_equal_marking_counts(self, corpus):
        grids = list(corpus.items()) + _seeded_grids(range(2, DEFAULT_STATE_CAP + 1), 10)
        for name, g in grids:
            corners, *_, twins = complexes._rectangle_pattern(g.n)
            weight = [mask.bit_count() for mask in complexes._class_masks(g, corners)]
            pairs = set(zip(twins[2::4], twins[3::4]))
            assert all(weight[k] == weight[other] for k, other in pairs), name

    def test_a_varying_gap_raises(self):
        corners, offsets, targets, classes, twins = complexes._rectangle_pattern(5)
        gaps = {k: gap for k, *_, gap in complexes._gaps_in_use(5)}
        # the first entry's class moved to a class in use of another gap
        k = next(k for k, gap in gaps.items() if gap != gaps[classes[0]])
        edited = (corners, offsets, targets, array(classes.typecode, [k]) + classes[1:], twins)
        low, high = sorted((gaps[k], gaps[classes[0]]))
        with pytest.raises(BrokenInvariant, match=rf"class {k} of the size-5 .* gaps \[{low}, {high}\]"):
            oracles._class_gaps(5, edited)


def _seeded_grids(sizes, count):
    """`count` grids of each size, drawn in order from one seeded generator."""
    rng = random.Random(20261019)
    return [((n, i), random_grid(n, rng)) for n in sizes for i in range(count)]


def _positions(g):
    """(marking id, column, row) of every marking of g."""
    return [(i, *marking_position(g, i)) for i in range(2 * g.n)]


class TestLineMasks:
    """The masks and the grading table, which the package reads off line
    masks, against the marking positions themselves."""

    def test_class_masks_match_marking_positions(self, corpus):
        wrapped = Counter()
        grids = [(name, g) for name, g in corpus.items() if g.n <= 7]
        for name, g in grids + _seeded_grids(range(2, 8), 10):
            n, marks = g.n, _positions(g)
            corners = complexes._rectangle_pattern(n)[0]
            got = complexes._class_masks(g, corners)
            for (a, b, s, h), mask in zip(zip(*corners), got):
                want = sum(
                    1 << i for i, c, r in marks if (c - a) % n < b - a and (r - s) % n < h
                )
                assert mask == want, (name, (a, b, s, h))
                wrapped["columns"] += b > n
                wrapped["rows"] += s + h > n
        assert wrapped["columns"] and wrapped["rows"]

    def test_grading_table_matches_marking_positions(self, corpus):
        for name, g in list(corpus.items()) + _seeded_grids(range(2, 9), 20):
            n, marks = g.n, _positions(g)
            table, _ = complexes._grid_grading_part(g)
            want = [
                [
                    sum(1 for _, mc, mr in marks if (mc >= c and mr >= r) or (mc < c and mr < r))
                    for r in range(n)
                ]
                for c in range(n)
            ]
            assert table == want, name


class TestCurvature:
    def test_lines_pair_their_markings(self, corpus):
        for name, g in list(corpus.items()) + _seeded_grids(range(2, 9), 20):
            marks, odd = _positions(g), Counter()
            for line in range(g.n):
                for axis in (1, 2):  # the markings in column `line`, then in row `line`
                    pair = [(m[0], 1) for m in marks if m[axis] == line]
                    assert len(pair) == 2, (name, line)
                    odd[oracles.code(oracles.ExponentVector.make(pair))] += 1
            assert expected_curvature(g) == {code for code, k in odd.items() if k % 2}, name

    def test_expected_shape(self, corpus):
        # each code has two 2-bit fields equal to 1, for one O variable
        # (below n) and one X variable, and every other field 0
        for name, g in corpus.items():
            for code in expected_curvature(g):
                assert code < 4 ** (2 * g.n), name
                fields = [code >> 2 * i & 3 for i in range(2 * g.n)]
                ones = [i for i, e in enumerate(fields) if e]
                assert [fields[i] for i in ones] == [1, 1], name
                assert [i < g.n for i in ones] == [True, False], name

    def test_curvature_compares_the_diagonal_value(self, monkeypatch):
        # a diagonal that holds the right state with a wrong value fails:
        # one code dropped from the expected value, or one added
        g = corpus_grid("trefoil5")
        expected = expected_curvature(g)
        assert verify_curvature(g)
        wrong = oracles.code(oracles.ExponentVector.make({0: 2}))
        assert wrong not in expected
        for value in (expected - {min(expected)}, expected | {wrong}):
            monkeypatch.setattr(complexes, "expected_curvature", lambda g, value=value: value)
            assert not verify_curvature(g)

    def test_corpus_curvature(self, corpus):
        for name, g in corpus.items():
            if g.n <= 5:
                assert verify_curvature(g), name

    def test_squared_boundary_is_diagonal(self, multi_complexes, corpus):
        for name, c in multi_complexes.items():
            expected = expected_curvature(corpus[name])
            sq = boundary_squared(c)
            for state in c.basis.labels():
                assert set(sq.get(state, {})) == {state}, name
                assert sq[state][state] == expected, name

    @given(st.randoms(use_true_random=False))
    def test_random_grid_curvature(self, rng):
        assert verify_curvature(random_grid(rng.choice((2, 3, 4)), rng))


def _brute_force_groups(n):
    """{(x, z): the unordered class pairs that the paths x -> y -> z hold
    an odd number of times}, over every term of the rectangle pattern of
    size n, a twin's two rectangles as two terms; empty sets left out."""
    _, offsets, targets, classes, twins = complexes._rectangle_pattern(n)
    terms = [list(zip(targets[lo:hi], classes[lo:hi])) for lo, hi in zip(offsets, offsets[1:])]
    for x, y, k, other in zip(*[iter(twins)] * 4):
        terms[x] += [(y, k), (y, other)]
    multisets = {}
    for x, row in enumerate(terms):
        for y, k1 in row:
            for z, k2 in terms[y]:
                multisets.setdefault((x, z), Counter())[k1, k2] += 1
    out = {}
    for ends, pairs in multisets.items():
        unordered = Counter()
        for (k1, k2), count in pairs.items():
            unordered[min(k1, k2), max(k1, k2)] += count
        odd = frozenset(pair for pair, count in unordered.items() if count % 2)
        if odd:
            out[ends] = odd
    return out


def _grouped(n):
    """{(x, z): the pairs of its shape} read back from `_path_groups(n)`,
    with the number of pairs of each shape."""
    first, second, bounds, two, ends, reach = complexes._path_groups(n)
    count, out, sizes = len(complexes._rectangle_pattern(n)[1]) - 1, {}, []
    for s in range(len(bounds) - 1):
        pairs = list(zip(first[bounds[s] : bounds[s + 1]], second[bounds[s] : bounds[s + 1]]))
        sizes.append(len(pairs))
        assert all(k1 <= k2 for k1, k2 in pairs) and len(set(pairs)) == len(pairs), s
        for e in ends[reach[s] : reach[s + 1]]:
            assert divmod(e, count) not in out, (s, e)
            out[divmod(e, count)] = frozenset(pairs)
    assert all(k == 2 for k in sizes[:two]) and 2 not in sizes[two:]
    return out, sizes


class TestGroupedCurvature:
    """The squared multivariable boundary as one parity count over the
    pattern's two-step paths grouped by their ends, against a brute-force
    list of the paths and the monomial-by-monomial oracle."""

    def test_curvature_grouping_matches_the_brute_force_paths(self):
        for n in range(2, 6):
            got, sizes = _grouped(n)
            assert got == _brute_force_groups(n), n
            shapes = {}
            for ends, pairs in got.items():
                shapes.setdefault(pairs, []).append(ends)
            assert len(shapes) == len(sizes), n  # identical sets are one shape

    def test_curvature_of_flipped_masks_keeps_off_diagonal_terms(self):
        # marking 1 added to class 1 of trefoil5: of the 68 pairs (x, z != x)
        # that survive, 48 are groups of two pairs, and some terms have an
        # exponent 2, which a 1-bit field would carry
        g = corpus_grid("trefoil5")
        c = build_complex(g)
        masks = list(c.masks)
        masks[1] ^= 1 << 1
        broken = MonomialComplex(c.basis, c.marking_count, c.grid, masks=masks)
        sq = boundary_squared(broken)
        assert sq == oracles.coded(oracles.boundary_squared_multi(broken))
        position = {x: i for i, x in enumerate(sorted(c.basis.labels()))}
        two_pairs = {ends for ends, pairs in _grouped(g.n)[0].items() if len(pairs) == 2}
        off = [(x, z) for x, row in sq.items() for z in row if z != x]
        assert len(off) == 68
        assert sum((position[x], position[z]) in two_pairs for x, z in off) == 48
        assert any(e == 2 for x, z in off for ev in map(oracles.vector, sq[x][z]) for _, e in ev.exps)

    def test_curvature_without_one_rectangle_matches_the_oracle(self, monkeypatch):
        g = corpus_grid("trefoil5")
        corners, offsets, targets, classes, twins = complexes._rectangle_pattern(g.n)
        i = offsets[7] + 1  # the second rectangle of state 7
        edited = (
            corners,
            array(offsets.typecode, (o - (o > i) for o in offsets)),
            targets[:i] + targets[i + 1 :],
            classes[:i] + classes[i + 1 :],
            twins,
        )
        complexes._path_groups.cache_clear()
        try:
            monkeypatch.setattr(complexes, "_rectangle_pattern", lambda n: edited)
            c = build_complex(g)
            sq = boundary_squared(c)
            assert sq == oracles.coded(oracles.boundary_squared_multi(c))
            assert any(z != x for x, row in sq.items() for z in row)
            assert not verify_curvature(g)
        finally:
            complexes._path_groups.cache_clear()

    def test_curvature_leaves_the_boundary_unmade(self):
        g = random_grid(5, random.Random(5))
        c = build_complex(g)
        assert "boundary" not in vars(c)
        assert verify_curvature(g) and boundary_squared(c)
        assert "boundary" not in vars(c)  # the count reads the masks
        boundary = c.boundary
        assert boundary == oracles.coded(oracles.rectangle_boundary(g)) and c.boundary is boundary

    def test_curvature_entries_of_one_value_are_one_object(self):
        # every group on the diagonal is its own shape, with one value
        g = random_grid(6, random.Random(1711))
        c = build_complex(g)
        sq = boundary_squared(c)
        diagonal = [sq[x][x] for x in c.basis.labels()]
        assert len(diagonal) == 720 and len({id(v) for v in diagonal}) == 1
        assert diagonal[0] == expected_curvature(g)

    def test_curvature_masks_must_fit_the_pattern(self):
        g = corpus_grid("trefoil5")
        c = build_complex(g)
        for masks in (c.masks[:-1], c.masks + [0], [m | 1 << 10 for m in c.masks]):
            broken = MonomialComplex(c.basis, c.marking_count, c.grid, masks=masks)
            with pytest.raises(BrokenInvariant, match="masks for 500 classes"):
                boundary_squared(broken)

    def test_curvature_cap_checked_before_any_grouping(self):
        g = corpus_grid("trefoil5")
        before = complexes._rectangle_pattern.cache_info(), complexes._path_groups.cache_info()
        for check in (build_complex, verify_curvature):
            with pytest.raises(CapExceeded):
                check(g, cap=4)
        assert (complexes._rectangle_pattern.cache_info(), complexes._path_groups.cache_info()) == before

    def test_curvature_grouping_once_per_size_and_not_at_import(self):
        script = (
            "import random\n"
            "from gridfloer import complexes, random_grid, verify_curvature\n"
            "print(complexes._path_groups.cache_info().currsize)\n"
            "rng = random.Random(4)\n"
            "for n in (4, 4, 3, 4):\n"
            "    assert verify_curvature(random_grid(n, rng))\n"
            "info = complexes._path_groups.cache_info()\n"
            "print(info.misses, info.hits)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(gridfloer.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        ).stdout
        assert out.split() == ["0", "2", "2"]

    def test_curvature_grouping_memory_budget(self):
        # measured on CPython 3.11.7 for n = 6: a peak of 1.43 MB while the
        # grouping is made and 0.29 MB kept; the bounds add 40% headroom.
        # Not measured on CPython 3.10, which CI also runs.
        complexes._rectangle_pattern(6)
        complexes._path_groups.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            complexes._path_groups(6)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6 and kept < 0.41e6, (peak, kept)


class TestFrozenComplexes:
    def test_frozen_unknot_complexes(self, gc_primes):
        for name, entries, ranks in (("unknot2", {}, {0: 2}), ("unknot3", UNKNOT3_ENTRIES, UNKNOT3_RANKS)):
            c = gc_primes[name]
            assert all(p.is_monomial() for _, _, p in c.entries())
            assert {(s, t): p.degree() for s, t, p in c.entries()} == entries, name
            assert Counter(c.basis.gradings()) == ranks, name


# A 3x3 grid that is not in the corpus, so no session fixture holds it.
_UNHELD = ((0, 1, 2), (2, 0, 1))


class TestComplexCache:
    def test_same_object_while_held(self):
        g = validate(*_UNHELD)
        assert g not in _GC_PRIME_ALIVE
        a = build_gc_prime(g)
        assert build_gc_prime(g) is a
        assert build_gc_prime(validate(*_UNHELD)) is a  # equal grid, new object

    def test_fresh_build_after_release(self):
        g = validate(*_UNHELD)
        a = build_gc_prime(g)
        basis, boundary = a.basis, a.boundary
        gone = weakref.ref(a)
        del a
        assert gone() is None and g not in _GC_PRIME_ALIVE
        b = build_gc_prime(g)
        assert b.basis == basis and b.boundary == boundary
        assert b.boundary is not boundary

    def test_cap_checked_on_a_hit(self):
        g = validate(*_UNHELD)
        a = build_gc_prime(g)
        with pytest.raises(CapExceeded, match="grid size 3 exceeds the state cap 2"):
            build_gc_prime(g, cap=2)
        assert build_gc_prime(g, cap=3) is a

    def test_cli_command_leaves_no_complex_alive(self):
        # In a fresh process with the cycle collector off, so a complex kept
        # alive by a reference cycle would still be in the dictionary.
        script = (
            "import contextlib, gc, io\n"
            "gc.disable()\n"
            "from gridfloer import cli, complexes\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['--json', 'verify', 'band-relations'])\n"
            "print(rc, len(complexes._GC_PRIME_ALIVE))\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(gridfloer.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        ).stdout
        assert out.split() == ["0", "0"]
