"""Coefficient ring, graded complexes, homology, chain maps, Smith forms."""
import functools
import itertools
import random
import weakref
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import add_chain_maps
from gridfloer import (
    ONE,
    U,
    ZERO,
    BrokenInvariant,
    ChainMap,
    DiskStab,
    GradedBasis,
    GradedModuleSummary,
    HomologyGenerator,
    HomologyPresentation,
    InvalidSite,
    MonomialComplex,
    NotAComplex,
    NotChainMap,
    NotHomogeneous,
    PolyF2U,
    QuasiStab,
    BandMapChoice,
    band_map,
    band_map_raw,
    boundary_squared,
    boundary_squares_to_zero,
    build_complex,
    build_gc_prime,
    chain_defect,
    chain_map_degree,
    chain_maps_equal,
    compose_chain_maps,
    corpus_grid,
    corpus_grids,
    derived_stab_offsets,
    disk_destab_map,
    disk_stab_map,
    find_switch_sites,
    homology,
    identity_chain_map,
    induced_map,
    is_chain_map,
    maps_equal_on_homology,
    present_homology,
    quasi_destab_map,
    quasi_stab_map,
    random_grid,
    renumber_map,
    same_letter_neighbors,
    scale_chain_map,
    u_power,
)
from gridfloer import algebra, cli, complexes
from gridfloer.algebra import (
    _check_squares_to_zero,
    _columns,
    _inverse_rows,
    _reduce,
)
from gridfloer.cobordism import _restacked
from gridfloer.complexes import _build_gc_prime
from oracles import (
    COMMON_VARIABLE,
    ExponentVector,
    MultiComplex,
    NonHomogeneousEntry,
    collapse,
    complex_from_rows,
    poly_divmod,
    smith_reduce,
    solve_linear,
    specialize,
)

polys = st.builds(PolyF2U, st.integers(min_value=0, max_value=2**12 - 1))

# frozen homology of every corpus entry, {doubled grading: (free, torsion)}
HOMOLOGY = {
    "unknot2": {0: (2, ())},
    "unknot3": {0: (4, ())},
    "unknot4": {0: (8, ())},
    "unknot4_sites": {0: (8, ())},
    "hopf4": {0: (8, (1, 1, 1, 1))},
    "split2x2_2x2": {0: (4, ()), -2: (4, ())},
    "trefoil5": {2: (16, (1,) * 16)},
    "trefoil6": {2: (32, (1,) * 32)},
    "split4x4_2x2": {0: (16, ()), -2: (16, ())},
    "fig8_6": {0: (32, (1,) * 64)},
}


class TestPolyF2U:
    @given(polys, polys, polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + a == ZERO
        assert a * ONE == a
        assert a * ZERO == ZERO

    @given(polys)
    def test_terms_roundtrip(self, a):
        assert PolyF2U.from_terms(a.terms) == a

    def test_from_terms_rejects_negative(self):
        with pytest.raises(ValueError):
            PolyF2U.from_terms([-1])

    @given(polys, st.integers(min_value=0, max_value=8))
    def test_shift_is_u_power_multiplication(self, a, k):
        assert a.shifted(k) == a * u_power(k)

    @given(polys, st.integers(min_value=0, max_value=8))
    def test_truncation(self, a, k):
        t = oracles.truncated(a, k)
        assert all(e < k for e in t.terms)
        assert (a + t).terms == {e for e in a.terms if e >= k}

    def test_monomials_and_degree(self):
        assert u_power(3).is_monomial()
        assert not (ONE + U).is_monomial()
        assert not ZERO.is_monomial()
        assert ZERO.degree() == -1
        assert (ONE + u_power(4)).degree() == 4
        with pytest.raises(ValueError):
            u_power(-1)
        with pytest.raises(ValueError):
            ONE.shifted(-2)

    def test_repr(self):
        assert repr(ZERO) == "0"
        assert repr(ONE + U + u_power(2)) == "U^2 + U + 1"

    @given(polys, polys)
    def test_divmod(self, a, b):
        if not b:
            with pytest.raises(ZeroDivisionError):
                poly_divmod(a, b)
            return
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()

    @given(polys, polys)
    def test_exact_division(self, a, b):
        if b:
            q, r = poly_divmod(a * b, b)
            assert (q, r) == (a, ZERO)


class TestExponentVector:
    def test_make_drops_zeros_and_sorts(self):
        ev = ExponentVector.make({3: 1, 1: 2, 5: 0})
        assert ev.variables() == (1, 3)
        assert ev.get(1) == 2 and ev.get(3) == 1 and ev.get(5) == 0
        assert ev.total() == 3

    def test_product_adds_exponents(self):
        a = ExponentVector.make({0: 1, 2: 1})
        b = ExponentVector.make({2: 1, 7: 3})
        assert (a * b).get(2) == 2
        assert (a * b).total() == a.total() + b.total()

    def test_code_pair(self):
        # the package's form: two bits per variable, exponent e of variable
        # i as e 4^i; no code for an exponent above 3 or the common variable
        ev = ExponentVector.make({0: 1, 2: 3, 5: 2})
        assert oracles.code(ev) == 1 + 3 * 16 + 2 * 4**5
        assert oracles.vector(oracles.code(ev)) == ev
        assert oracles.code(ExponentVector()) == 0 and oracles.vector(0) == ExponentVector()
        for bad in ({1: 4}, {COMMON_VARIABLE: 1}):
            with pytest.raises(ValueError, match="no two-bit code"):
                oracles.code(ExponentVector.make(bad))

    def test_collapse(self):
        ev = ExponentVector.make({0: 1, 1: 2, 2: 3})
        c = collapse(ev, (1,))
        assert c.get(1) == 2
        assert c.get(COMMON_VARIABLE) == 4
        assert c.total() == ev.total()


class TestGradedBasis:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GradedBasis((("a", 0), ("a", 2)))

    def test_accessors(self):
        b = GradedBasis((("a", 0), ("b", -2)))
        assert b.labels() == ("a", "b")
        assert b.to_dict() == {"a": 0, "b": -2}
        assert len(b) == 2

    def test_elements_sorted_stably_by_grading(self):
        b = GradedBasis((("z", 0), ("y", 2), ("a", 0), ("x", -2), ("b", 2)))
        assert b.labels() == ("y", "b", "z", "a", "x")
        assert b.gradings() == (2, 2, 0, 0, -2)


class TestSummary:
    def test_from_dict_drops_empty_and_sorts(self):
        s = GradedModuleSummary.from_dict({0: (1, [2, 1]), 4: (0, []), -2: (3, ())})
        assert s.rows == ((0, 1, (1, 2)), (-2, 3, ()))
        assert s.total_free() == 4
        assert s.torsion_multiset() == (1, 2)
        assert s.to_dict() == {0: (1, (1, 2)), -2: (3, ())}

    def test_json_rows(self):
        s = GradedModuleSummary.from_dict({2: (1, [1])})
        assert s.to_json_rows() == [
            {"grading_doubled": 2, "free_rank": 1, "torsion": [1]}
        ]

    @pytest.mark.parametrize("bad", [{0: (-1, [])}, {0: (1, [0])}, {0: (1, [-2])}])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            GradedModuleSummary.from_dict(bad)


def _tiny_multi():
    """Two-step complex with exponent-vector coefficients."""
    basis = GradedBasis((("x", 0), ("y", -2), ("z", -4)))
    dxy = frozenset({ExponentVector.make({0: 1}), ExponentVector.make({1: 1})})
    dyz = frozenset({ExponentVector.make({0: 1}), ExponentVector.make({1: 1})})
    return MultiComplex(basis, {"x": {"y": dxy}, "y": {"z": dyz}}, marking_count=2)


def _cubic_multi():
    """Two-step complex with exponents up to 3 and the common variable; the
    paths through y and w both give u0^3 u1^3, which cancels."""
    ev = ExponentVector.make
    basis = GradedBasis((("x", 0), ("y", -2), ("w", -2), ("z", -4)))
    boundary = {
        "x": {
            "y": frozenset({ev({0: 3, 1: 1}), ev({1: 3})}),
            "w": frozenset({ev({0: 3})}),
        },
        "y": {"z": frozenset({ev({0: 3}), ev({1: 2, COMMON_VARIABLE: 1})})},
        "w": {"z": frozenset({ev({1: 3})})},
    }
    return MultiComplex(basis, boundary, marking_count=2)


class TestSpecialize:
    def test_all_policy_cancels_pairs(self):
        c = specialize(_tiny_multi(), "all")
        # U + U = 0 over F2, so every entry dies
        assert c.columns == [0, 0, 0] and c.boundary == {}

    def test_all_on_single_is_identity(self, gc_primes):
        c = gc_primes["unknot2"]
        assert specialize(c, "all") is c

    def test_keep_two(self):
        c = specialize(_tiny_multi(), (0, 1))
        assert isinstance(c, MultiComplex)
        (ev1, ev2) = sorted(c.boundary["x"]["y"], key=lambda e: e.variables())
        assert {ev1.variables(), ev2.variables()} == {(0,), (1,)}

    def test_keep_two_collapses_others(self):
        basis = GradedBasis((("x", 0), ("y", -2)))
        ev = ExponentVector.make({0: 1, 1: 1, 2: 2, 3: 1})
        c = MultiComplex(basis, {"x": {"y": frozenset({ev})}}, 4)
        (out,) = specialize(c, (0, 1)).boundary["x"]["y"]
        assert out.get(0) == 1 and out.get(1) == 1
        assert out.get(COMMON_VARIABLE) == 3

    @pytest.mark.parametrize("policy", [(0, 0), (0, 99), "none", 7, (1,)])
    def test_bad_policies(self, policy):
        with pytest.raises(ValueError):
            specialize(_tiny_multi(), policy)

    def test_keep_two_needs_multi(self, gc_primes):
        with pytest.raises(ValueError):
            specialize(gc_primes["unknot2"], (0, 1))


class TestComplexChecks:
    def test_boundary_squared_multi(self):
        # the oracle on hand-built complexes: (a+b)^2 expands to a^2 + ab +
        # ab + b^2 = a^2 + b^2 over F2, and exponents up to 3 multiply to 6
        ev = ExponentVector.make
        assert oracles.boundary_squared_multi(_tiny_multi()) == {
            "x": {"z": frozenset({ev({0: 2}), ev({1: 2})})}
        }
        assert oracles.boundary_squared_multi(_cubic_multi()) == {
            "x": {
                "z": frozenset(
                    {
                        ev({0: 6, 1: 1}),
                        ev({COMMON_VARIABLE: 1, 0: 3, 1: 3}),
                        ev({COMMON_VARIABLE: 1, 1: 5}),
                    }
                )
            }
        }

    def test_boundary_squared_refuses_single_variable(self, gc_primes):
        # the single-variable check is boundary_squares_to_zero
        with pytest.raises(NotHomogeneous, match="single-variable"):
            boundary_squared(gc_primes["unknot3"])

    def test_single_variable_work_refuses_a_masks_complex(self, multi_complexes):
        c = multi_complexes["trefoil5"]
        for work in (homology, present_homology, boundary_squares_to_zero):
            with pytest.raises(NotHomogeneous, match="complex is not single-variable"):
                work(c)
        site = find_switch_sites(c.grid)[0]
        with pytest.raises(InvalidSite, match="single-variable grid complexes"):
            band_map_raw(c, BandMapChoice(site))

    def test_broken_invariant_unless_one_stored_form(self, gc_primes, multi_complexes):
        # a complex is one of its forms, never none of them or two
        c, multi = gc_primes["trefoil5"], multi_complexes["trefoil5"]
        one_form = "exactly one of its columns, its pattern order and its masks"
        forms = (
            (None, None, None),
            (c.columns, multi.masks, None),
            (c.columns, None, c.order),
            (None, multi.masks, c.order),
        )
        for columns, masks, order in forms:
            with pytest.raises(BrokenInvariant, match=one_form):
                MonomialComplex(
                    c.basis, c.marking_count, c.grid, columns=columns, masks=masks, order=order
                )

    def test_packed_square_matches_the_oracle(self, multi_complexes):
        for name, c in multi_complexes.items():
            assert boundary_squared(c) == oracles.coded(oracles.boundary_squared_multi(c)), name

    def test_packed_square_matches_the_oracle_on_seeded_6x6_grids(self):
        rng = random.Random(20260814)
        for i in range(2):
            c = build_complex(random_grid(6, rng))
            assert boundary_squared(c) == oracles.coded(oracles.boundary_squared_multi(c)), i

    def test_squares_to_zero_on_corpus(self, gc_primes):
        for name, c in gc_primes.items():
            assert boundary_squares_to_zero(c), name

    def test_not_a_complex_detected(self):
        basis = GradedBasis((("x", 0), ("y", -2), ("z", -4)))
        bad = complex_from_rows(basis, {"x": {"y": ONE}, "y": {"z": ONE}}, 1)
        assert not boundary_squares_to_zero(bad)
        with pytest.raises(NotAComplex):
            homology(bad)

    def test_non_monomial_entry_rejected(self):
        basis = GradedBasis((("x", 0), ("y", -2)))
        with pytest.raises(NonHomogeneousEntry, match="is not a monomial"):
            complex_from_rows(basis, {"x": {"y": ONE + U}}, 1)

    def test_inhomogeneous_entry_rejected(self):
        # U^1 from grading 0 to -2 violates src - tgt = 2 - 2k
        basis = GradedBasis((("x", 0), ("y", -2)))
        assert not oracles.is_homogeneous(basis, {"x": {"y": U}})
        with pytest.raises(NotHomogeneous, match="grading"):
            complex_from_rows(basis, {"x": {"y": U}}, 1)

    def test_homogeneous_on_corpus(self, gc_primes):
        for name, c in gc_primes.items():
            assert oracles.is_homogeneous(c.basis, c.boundary), name


def _stored(gradings, cols) -> MonomialComplex:
    """A single-variable complex given by its columns, which index the
    basis x0, x1, ... sorted by grading (stably)."""
    basis = GradedBasis(tuple((f"x{i}", g) for i, g in enumerate(gradings)))
    return MonomialComplex(basis, 0, columns=list(cols))


def _conjugated(cols: list[int], a: int, b: int) -> list[int]:
    """E D E for E = I + e_a e_b^T (its own inverse over F2): column b
    gains column a, then every column with bit b flips bit a."""
    cols = list(cols)
    cols[b] ^= cols[a]
    return [col ^ ((col >> b & 1) << a) for col in cols]


@st.composite
def _square_matrices(draw):
    """Random square F2 matrices with random gradings: dense ones, and
    conjugates of a matching (so d^2 = 0) with at most one bit flipped."""
    n = draw(st.integers(min_value=1, max_value=12))
    gradings = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    if draw(st.booleans()):
        cols = draw(st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n))
        return gradings, cols
    order = draw(st.permutations(range(n)))
    cols = [0] * n
    for s, t in zip(order[: n // 2], order[n // 2 :: 2]):  # s -> t, so d^2 = 0
        cols[s] = 1 << t
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(pairs, max_size=2 * n)):
        if a != b:
            cols = _conjugated(cols, a, b)
    if draw(st.booleans()):
        j, i = draw(pairs)
        cols[j] ^= 1 << i
    return gradings, cols


@functools.cache
def _small_corpus_complexes():
    return {name: _build_gc_prime(g) for name, g in corpus_grids().items() if g.n <= 5}


def _plain_reduction(cols: list[int]) -> list[int]:
    """The reduced columns without clearing: every column is reduced."""
    R, column_of_low = list(cols), {}
    for j, r in enumerate(R):
        while r and r.bit_length() - 1 in column_of_low:
            r ^= R[column_of_low[r.bit_length() - 1]]
        if r:
            column_of_low[r.bit_length() - 1] = j
        R[j] = r
    return R


class TestReductionCertificate:
    """`_reduce` certifies d^2 = 0 on its nonzero reduced columns, and a
    failure raises the direct check's NotAComplex."""

    def _assert_agrees_with_direct_check(self, c):
        cols = list(c.columns)
        if boundary_squares_to_zero(c):
            _reduce(c)
        else:
            with pytest.raises(NotAComplex) as direct:
                _check_squares_to_zero(c.basis, cols)
            with pytest.raises(NotAComplex) as certified:
                _reduce(c)
            assert str(certified.value) == str(direct.value)
        assert c.columns == cols

    @settings(max_examples=300, derandomize=True)
    @given(_square_matrices())
    def test_certificate_on_random_matrices(self, matrix):
        self._assert_agrees_with_direct_check(_stored(*matrix))

    @settings(max_examples=100, derandomize=True)
    @given(st.data())
    def test_certificate_on_corpus_with_a_flipped_bit(self, data):
        complexes = _small_corpus_complexes()
        c = complexes[data.draw(st.sampled_from(sorted(complexes)))]
        n = len(c.basis)
        j, i = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        cols = list(c.columns)
        cols[j] ^= 1 << i
        self._assert_agrees_with_direct_check(
            MonomialComplex(c.basis, c.marking_count, c.grid, columns=cols)
        )

    def test_certificate_sees_an_odd_column_that_clearing_skips(self):
        # x0 -> x1 and x1 -> x0: column 1 is cleared, as x1 is the low of
        # column 0, yet it starts the odd path x1 -> x0 -> x1.  The first
        # odd column j is never cleared: were j the low of an earlier
        # R_i = D V_i, V_i would meet only columns before j, so D R_i =
        # D^2 V_i = 0 and D^2 e_j = D^2 (R_i + earlier bits) = 0.  So some
        # odd column is always reduced, and the message names x0 -> x0.
        c = _stored([0, 0], [0b10, 0b01])
        assert not boundary_squares_to_zero(c)
        with pytest.raises(NotAComplex, match=r"odd path count x0 -> x0$"):
            _reduce(c)

    def test_certificate_checks_columns_reduced_before_they_became_lows(self):
        # columns 0 and 2 are reduced to nonzero R_0 = x0 + x1 and R_2 = x0
        # before columns 2 and 3 make 0 and 2 lows; D R_0 and D R_2 are the
        # only nonzero products, and D R_3 = D(x1 + x2) = 0
        c = _stored([0] * 4, [0b0011, 0b0010, 0b0010, 0b0110])
        with pytest.raises(NotAComplex, match=r"odd path count x0 -> x0$"):
            _reduce(c)

    def test_certificate_applies_the_boundary_to_reduced_columns_only(self, monkeypatch):
        # on a complex the certificate is one product per nonzero reduced
        # column, and the direct check is not run; clearing changes no
        # nonzero reduced column of a complex, so the plain reduction
        # gives them
        c = _small_corpus_complexes()["trefoil5"]
        reduced = [r for r in _plain_reduction(c.columns) if r]
        assert len(reduced) < len(c.basis) and reduced != [d for d in c.columns if d]
        applied, apply_bits = [], algebra._apply_bits

        def recorded(cols, col):
            applied.append(col)
            return apply_bits(cols, col)

        def refused(basis, cols):
            raise AssertionError("the direct check ran on a complex")

        monkeypatch.setattr(algebra, "_apply_bits", recorded)
        monkeypatch.setattr(algebra, "_check_squares_to_zero", refused)
        _reduce(c)
        assert applied == reduced

    def test_certificate_broken_invariant_when_the_direct_check_passes(self, monkeypatch):
        monkeypatch.setattr(algebra, "_check_squares_to_zero", lambda basis, cols: None)
        with pytest.raises(BrokenInvariant, match="not a cycle"):
            _reduce(_stored([0, 0], [0b10, 0b01]))


def _keeping_a_twin(pattern):
    """The rectangle pattern with its first twin x -> y kept as one of x's
    rectangles, as a walk that failed to pair it would leave it."""
    corners, offsets, targets, classes, twins = pattern
    x, y, k, _ = twins[:4]
    at = offsets[x + 1]
    return (
        corners,
        array(offsets.typecode, [o + (i > x) for i, o in enumerate(offsets)]),
        targets[:at] + array(targets.typecode, [y]) + targets[at:],
        classes[:at] + array(classes.typecode, [k]) + classes[at:],
        twins[4:],
    )


class TestSizeRecord:
    """`_reduce` certifies d^2 = 0 on the first complex built from the
    rectangle pattern of a size, records that pattern, and skips the
    certificate on later builds from it; every other complex, and every
    other pattern, is certified."""

    @pytest.fixture
    def applied(self, monkeypatch):
        # no size certified and no complex alive, whatever ran before;
        # returns the columns the certificate applies the boundary to
        monkeypatch.setattr(complexes, "_SQUARE_FREE", {})
        monkeypatch.setattr(complexes, "_GC_PRIME_ALIVE", weakref.WeakValueDictionary())
        applied, apply_bits = [], algebra._apply_bits

        def recorded(cols, col):
            applied.append(col)
            return apply_bits(cols, col)

        monkeypatch.setattr(algebra, "_apply_bits", recorded)
        return applied

    @staticmethod
    def _keep_a_twin(monkeypatch):
        """Swaps in a pattern that keeps one twin, made once per size."""
        real = complexes._rectangle_pattern
        patched = functools.cache(lambda n: _keeping_a_twin(real(n)))
        monkeypatch.setattr(complexes, "_rectangle_pattern", patched)

    @staticmethod
    def _live(seed, n=5):
        return build_gc_prime(random_grid(n, random.Random(seed)))

    @staticmethod
    def _reduced(c):
        return [r for r in _plain_reduction(c.columns) if r]

    def test_first_live_complex_of_a_size_is_certified(self, applied):
        c = self._live(1)
        _reduce(c)
        assert applied and applied == self._reduced(c)
        assert complexes._SQUARE_FREE[5] is complexes._rectangle_pattern(5)

    def test_later_live_complexes_of_that_size_are_not(self, applied):
        _reduce(self._live(1))
        applied.clear()
        c = self._live(2)
        got = _reduce(c)
        assert applied == []
        copy = MonomialComplex(c.basis, c.marking_count, c.grid, columns=list(c.columns))
        assert _reduce(copy) == got
        applied.clear()
        other = self._live(2, n=4)  # another size
        _reduce(other)
        assert applied and applied == self._reduced(other)

    def test_a_copy_of_the_columns_is_certified(self, applied):
        c = self._live(1)
        _reduce(c)
        applied.clear()
        _reduce(MonomialComplex(c.basis, c.marking_count, c.grid, columns=list(c.columns)))
        assert applied and applied == self._reduced(c)

    def test_a_failing_certificate_marks_no_size(self, applied, monkeypatch):
        self._keep_a_twin(monkeypatch)
        c = self._live(1)
        with pytest.raises(NotAComplex, match="odd path count"):
            homology(c)
        assert complexes._SQUARE_FREE == {}

    def test_a_swapped_pattern_is_certified_again(self, applied, monkeypatch):
        _reduce(self._live(1))
        assert 5 in complexes._SQUARE_FREE
        self._keep_a_twin(monkeypatch)
        c = self._live(2)
        assert complexes._on_pattern(c)
        with pytest.raises(NotAComplex, match="odd path count"):
            homology(c)


class TestColumnsOnRead:
    """A built complex is its pattern order: its columns are made, one
    `complexes._column_maker` call each, on the first read of `columns`,
    or one by one by a reduction that skips the d^2 certificate, which
    never makes a cleared column.  Nothing else makes one."""

    @pytest.fixture
    def made(self, monkeypatch):
        # no size certified and no complex alive, whatever ran before;
        # returns the indices of the columns made, in order
        derived_stab_offsets()  # the stabilization gaps, made once per process
        monkeypatch.setattr(complexes, "_SQUARE_FREE", {})
        monkeypatch.setattr(complexes, "_GC_PRIME_ALIVE", weakref.WeakValueDictionary())
        made, maker = [], complexes._column_maker

        def counted(order):
            column = maker(order)

            def recorded(j):
                made.append(j)
                return column(j)

            return recorded

        monkeypatch.setattr(complexes, "_column_maker", counted)
        return made

    @pytest.mark.parametrize("suite", ["band-relations", "grading", "stab-relations"])
    def test_suites_make_no_column(self, made, suite, capsys):
        assert cli.main(["verify", suite]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert made == []

    def test_moves_make_no_column(self, made):
        c = build_gc_prime(corpus_grid("trefoil5"))
        site = find_switch_sites(c.grid)[0]
        stacked = quasi_stab_map(c, 0).tgt
        assert _restacked(stacked, (DiskStab(),)).order is c.order
        f = band_map(stacked, BandMapChoice(site))
        band_map(f.tgt, BandMapChoice(site, direction="inverse"))
        assert made == []

    def test_a_cold_reduction_reads_every_column_once(self, made):
        for n in (5, 6, 7):
            c = build_gc_prime(random_grid(n, random.Random(n)))
            homology(c)
            assert made == list(range(len(c.basis))), n
            made.clear()

    def test_a_warm_reduction_makes_only_the_columns_it_reduces(self, made):
        for n in (5, 6, 7):
            rng = random.Random(n)
            homology(build_gc_prime(random_grid(n, rng)))
            made.clear()
            c = build_gc_prime(random_grid(n, rng))
            got = homology(c)
            reduced = list(made)
            made.clear()
            cols = c.columns  # not kept by the reduction: made here, all of them
            assert made == list(range(len(cols))), n
            made.clear()
            assert homology(c) == got and made == [], n  # read, not made again
            lows = {r.bit_length() - 1 for r in _plain_reduction(cols) if r}
            assert len(lows) == (len(cols) - 2 ** (n - 1)) // 2, n
            assert reduced == sorted(set(range(len(cols))) - lows), n
            copy = MonomialComplex(c.basis, c.marking_count, c.grid, columns=list(cols))
            assert homology(copy) == got, n

    def test_columns_are_made_once_and_kept_on_the_base(self, made):
        rng = random.Random(3)
        c = build_gc_prime(random_grid(6, rng))
        stacked = quasi_stab_map(c, 0).tgt
        cols = c.columns
        assert made == list(range(720))
        made.clear()
        assert c.columns is cols and stacked.columns is cols and _columns(c) is cols
        assert _restacked(stacked, (DiskStab(),)).columns is cols
        other = build_gc_prime(random_grid(6, rng))  # first read through a stack
        via = _restacked(other, (QuasiStab(0), DiskStab())).columns
        assert made == list(range(720)) and other.columns is via and via != cols

    def test_a_build_fills_from_its_own_pattern_after_a_swap(self, made, monkeypatch):
        g = random_grid(5, random.Random(4))
        want, c = _build_gc_prime(g).columns, build_gc_prime(g)
        TestSizeRecord._keep_a_twin(monkeypatch)
        assert _build_gc_prime(g).columns != want
        assert c.columns == want
        copy = MonomialComplex(c.basis, c.marking_count, c.grid, columns=want)
        assert _reduce(c) == _reduce(copy)


class TestHomology:
    def test_frozen_corpus_homology(self, gc_primes):
        for name, c in gc_primes.items():
            assert homology(c).to_dict() == HOMOLOGY[name], name

    def test_deterministic(self, corpus):
        # two separate builds: build_gc_prime would hand back the corpus
        # complex that the session's gc_primes fixture keeps alive
        g = corpus["trefoil5"]
        a = present_homology(_build_gc_prime(g))
        summary, labels = a.summary, [x.label for x in a.generators]
        del a
        b = present_homology(_build_gc_prime(g))
        assert b.summary == summary
        assert [x.label for x in b.generators] == labels

    def test_presentation_consistency(self, gc_primes):
        for name, c in gc_primes.items():
            pres = present_homology(c)
            assert pres.summary == homology(c), name
            view = oracles.label_presentation(pres)
            n_gen = len(pres.generators)
            for i, rep in enumerate(view.representatives):
                coords = oracles.project(view, rep)
                want = tuple(ONE if j == i else ZERO for j in range(n_gen))
                assert coords == want, (name, i)

    def test_representatives_are_cycles(self, gc_primes):
        for name, c in gc_primes.items():
            view = oracles.label_presentation(present_homology(c))
            for rep in view.representatives:
                assert oracles.apply(c.boundary, rep) == {}, name

    def test_boundaries_project_to_zero(self, gc_primes, rng):
        for name, c in gc_primes.items():
            view = oracles.label_presentation(present_homology(c))
            labels = c.basis.labels()
            for _ in range(5):
                picks = rng.sample(labels, min(3, len(labels)))
                vec = {lab: u_power(rng.randint(0, 2)) for lab in picks}
                img = oracles.apply(c.boundary, vec)
                assert not any(oracles.project(view, img)), name

    def test_u_action_on_homology(self, gc_primes):
        # multiplication by U: injective on free towers, zero on U-torsion
        for name in ("unknot3", "trefoil5"):
            c = gc_primes[name]
            pres = present_homology(c)
            mat = induced_map(scale_chain_map(identity_chain_map(c), U), pres, pres)
            for i, gen_r in enumerate(pres.generators):
                for j, gen_c in enumerate(pres.generators):
                    if i != j:
                        assert mat[i][j] == ZERO
                    elif gen_r.torsion_exp == 1:
                        assert mat[i][j] == ZERO
                    else:
                        assert mat[i][j] == U

    def test_total_rank_matches_mod_u_dimension(self, gc_primes):
        # setting U = 0 keeps each free tower and splits each torsion
        # summand into two F2s; seeded grids at n = 5 and 6 and their
        # stabilizations add larger complexes and the stacked gap gradings
        cases = list(gc_primes.items())
        rng = random.Random(20260814)
        for n in (5, 6):
            c = build_gc_prime(random_grid(n, rng))
            cases += [(n, c), ((n, "quasi"), quasi_stab_map(c, 0).tgt)]
            cases.append(((n, "disk"), disk_stab_map(c).tgt))
        for name, c in cases:
            s = homology(c)
            dim = s.total_free() + 2 * len(s.torsion_multiset())
            assert dim == oracles.mod_u_homology_dimension(c), name

    def test_matches_smith_form_of_the_dense_boundary(self, corpus, gc_primes):
        for name, c in gc_primes.items():
            if corpus[name].n > 5:
                continue
            diagonal = [p for p in smith_reduce(_boundary_matrix(c)[0]).diagonal if p]
            s = homology(c)
            assert s.total_free() == len(c.basis) - 2 * len(diagonal), name
            assert s.torsion_multiset() == tuple(
                sorted(p.degree() for p in diagonal if p.degree() > 0)
            ), name

    # hand-built complexes on which one wrong step of the column reduction
    # changes the answer

    def test_earlier_column_is_added_into_the_later(self):
        # dx = t, dy = U t: y + U x is the cycle; adding y into x instead
        # would need U^-1, and pairs y with t as torsion
        basis = GradedBasis((("x", 2), ("y", 0), ("t", 0)))
        c = complex_from_rows(basis, {"x": {"t": ONE}, "y": {"t": U}}, 1)
        pres = present_homology(c)
        assert pres.summary.to_dict() == {0: (1, ())}
        assert oracles.label_presentation(pres).representatives == ({"y": ONE, "x": U},)

    def test_low_is_the_lowest_graded_target(self):
        # dx = s + U t: x cancels against s, its U^0 entry, and t survives
        basis = GradedBasis((("x", 2), ("s", 0), ("t", 2)))
        c = complex_from_rows(basis, {"x": {"s": ONE, "t": U}}, 1)
        assert homology(c).to_dict() == {2: (1, ())}
        assert homology(c) == oracles.reduction_summary(c)

    def test_only_a_low_is_cleared(self):
        # dx = s + U t, dt = r, ds = U r: t is a target of x but not its
        # low, and its own column pairs it with r
        basis = GradedBasis((("x", 2), ("t", 2), ("s", 0), ("r", 0)))
        boundary = {"x": {"s": ONE, "t": U}, "t": {"r": ONE}, "s": {"r": U}}
        c = complex_from_rows(basis, boundary, 1)
        assert homology(c).to_dict() == {}
        assert homology(c) == oracles.reduction_summary(c)


def _mat_mul(A, B):
    out = [[ZERO] * len(B[0]) for _ in A]
    for i, row in enumerate(A):
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(B[k]):
                    if b:
                        out[i][j] += a * b
    return out


def _assert_matches_tracked_oracle(c, name):
    """The column reduction against the pivot-cancellation oracle, without
    reference to either basis: equal summaries, identity maps between the
    two presentations that compose to the identity (torsion coordinates
    taken mod U^k), and every representative projecting to its unit
    vector."""
    new = oracles.label_presentation(present_homology(c))
    old = oracles.tracked_presentation(c)
    assert new.summary == old.summary, name
    ident = identity_chain_map(c)
    there = oracles.induced_map(ident, old, new)
    back = oracles.induced_map(ident, new, old)
    for pres, product in ((old, _mat_mul(back, there)), (new, _mat_mul(there, back))):
        for i, gen in enumerate(pres.generators):
            for j, p in enumerate(product[i]):
                if gen.torsion_exp is not None:
                    p = oracles.truncated(p, gen.torsion_exp)
                assert p == (ONE if i == j else ZERO), (name, i, j)
    for i, rep in enumerate(new.representatives):
        coords = oracles.project(new, rep)
        assert coords == tuple(ONE if j == i else ZERO for j in range(len(coords))), (name, i)


class TestPresentationOracle:
    """The column reduction against the pivot cancellation it replaced."""

    def test_corpus(self, gc_primes):
        for name, c in gc_primes.items():
            _assert_matches_tracked_oracle(c, name)

    def test_seeded_grids_and_their_stabilizations(self):
        # tensor-stack labels and the quasi and disk gap gradings
        rng = random.Random(20260814)
        for i in range(6):
            c = build_gc_prime(random_grid(6, rng))
            _assert_matches_tracked_oracle(c, i)
            quasi = quasi_stab_map(c, 0).tgt
            _assert_matches_tracked_oracle(quasi, (i, "quasi"))
            _assert_matches_tracked_oracle(disk_stab_map(c).tgt, (i, "disk"))

    def test_seeded_n7_summaries(self):
        rng = random.Random(20260814)
        for i in range(2):
            c = build_gc_prime(random_grid(7, rng))
            assert homology(c) == oracles.reduction_summary(c), i

    def test_projection_rows_invert_the_basis(self):
        # parity(r_p & basis[q]) = [p == q] for every column q, for every
        # row and for the rows present_homology returns
        c = build_gc_prime(random_grid(6, random.Random(20260814)))
        labels = c.basis.labels()
        _, _, basis = _reduce(c)
        everything = range(len(basis))

        def assert_row_inverts(row, p):
            parities = [(row & col).bit_count() & 1 for col in basis]
            assert parities == [int(q == p) for q in everything], p

        for p, row in zip(everything, _inverse_rows(basis, everything)):
            assert_row_inverts(row, p)
        position = {lab: i for i, lab in enumerate(labels)}
        pres = present_homology(c)
        for gen, row in zip(pres.generators, pres.rows):
            assert_row_inverts(row, position[gen.label])

    def test_projection_rows_match_back_substitution(self, gc_primes):
        # every row on the corpus and at n = 6; the presented rows at n = 7
        rng = random.Random(20260814)
        cases = list(gc_primes.items())
        cases += [((n, i), build_gc_prime(random_grid(n, rng))) for n in (6, 7) for i in (0, 1)]
        for name, c in cases:
            free, torsion, basis = _reduce(c)
            ps = range(len(basis)) if len(basis) <= 720 else free + [t for _, t in torsion]
            assert _inverse_rows(basis, ps) == oracles.back_substituted_rows(basis, ps), name

    def test_inconsistent_grading_is_a_broken_invariant(self):
        # two free towers, b at 2 and a at 0, with zero boundary; stored
        # columns and hand-set gradings are trusted, so only the gap check
        # in induced_map can notice that they do not fit
        c = complex_from_rows(GradedBasis((("a", 0), ("b", 2))), {}, 1)
        pres = present_homology(c)
        assert [gen.label for gen in pres.generators] == ["b", "a"]
        swap = ChainMap(c, c, {-2: [0b10, 0b01]})  # b -> a, a -> U^2 b
        assert induced_map(swap, pres, pres) == [[ZERO, u_power(2)], [ONE, ZERO]]
        for degree in (1, 2):  # odd gap; U^-1 on the diagonal
            with pytest.raises(BrokenInvariant):
                induced_map(ChainMap(c, c, {degree: [0b01, 0b10]}), pres, pres)
        assert induced_map(identity_chain_map(c), pres, pres) == [[ONE, ZERO], [ZERO, ONE]]
        shifted = HomologyGenerator("a", 1, None)  # a read at an odd grading
        bad = HomologyPresentation(
            c, pres.summary, (pres.generators[0], shifted), pres.representatives, pres.rows,
            pres.words,
        )
        with pytest.raises(BrokenInvariant):
            induced_map(identity_chain_map(c), bad, pres)
        with pytest.raises(BrokenInvariant):
            induced_map(identity_chain_map(c), pres, bad)

    def test_label_view_of_a_gap_the_gradings_cannot_give(self):
        # the same maps as above: their label-keyed entries would need
        # U^-1 (degree 2) or U^(-1/2) (degree 1) on the diagonal
        c = complex_from_rows(GradedBasis((("a", 0), ("b", 2))), {}, 1)
        for degree, gap in ((2, -2), (1, -1)):
            with pytest.raises(BrokenInvariant, match=f"b -> b: gap {gap}, degree {degree}"):
                ChainMap(c, c, {degree: [0b01, 0b10]}).entries
        swap = ChainMap(c, c, {-2: [0b10, 0b01]})
        assert swap.entries == {"b": {"a": ONE}, "a": {"b": u_power(2)}}

    def test_presentation_of_other_gradings_is_refused(self):
        # same labels in the same order, but b sits at 4: not the map's end
        c = complex_from_rows(GradedBasis((("a", 0), ("b", 2))), {}, 1)
        other = complex_from_rows(GradedBasis((("a", 0), ("b", 4))), {}, 1)
        assert c.basis.labels() == other.basis.labels()
        pres, other_pres = present_homology(c), present_homology(other)
        for src_pres, tgt_pres in ((other_pres, pres), (pres, other_pres)):
            with pytest.raises(NotChainMap, match="do not share their ends"):
                induced_map(identity_chain_map(c), src_pres, tgt_pres)


def _boundary_matrix(c):
    labels = c.basis.labels()
    idx = {lab: i for i, lab in enumerate(labels)}
    mat = [[ZERO] * len(labels) for _ in labels]
    for s, row in c.boundary.items():
        for t, p in row.items():
            mat[idx[t]][idx[s]] = p
    return mat, idx


def _random_homotopy(c, rng, density=0.4):
    """Degree +2 map with homogeneous monomial entries."""
    g2d = c.basis.to_dict()
    labels = c.basis.labels()
    entries = {}
    for x in labels:
        for y in labels:
            for k in (0, 1):
                if g2d[y] == g2d[x] + 2 + 2 * k and rng.random() < density:
                    entries.setdefault(x, {})[y] = u_power(k)
    return oracles.chain_map(c, c, entries)


class TestChainMaps:
    def test_identity(self, gc_primes):
        c = gc_primes["unknot3"]
        ident = identity_chain_map(c)
        assert is_chain_map(ident)
        assert chain_map_degree(ident) == 0
        assert chain_maps_equal(compose_chain_maps(ident, ident), ident)

    def test_add_self_is_zero(self, gc_primes):
        c = gc_primes["unknot3"]
        ident = identity_chain_map(c)
        z = add_chain_maps(ident, ident)
        assert all(not p for row in z.entries.values() for p in row.values())

    def test_scale_degree(self, gc_primes):
        c = gc_primes["unknot3"]
        f = scale_chain_map(identity_chain_map(c), u_power(2))
        assert is_chain_map(f)
        assert chain_map_degree(f) == -4

    def test_boundary_is_chain_map(self, gc_primes):
        c = gc_primes["split2x2_2x2"]
        dmap = oracles.chain_map(c, c, c.boundary)
        assert is_chain_map(dmap)
        assert chain_map_degree(dmap) == -2

    def test_every_part_is_checked(self):
        # the degree 0 part (the identity) commutes; the degree -2 part,
        # x -> U x and y -> 0, does not: it sends x to U x, whose boundary
        # is U y, but d x = y to 0
        basis = GradedBasis((("x", 0), ("y", -2)))
        c = complex_from_rows(basis, {"x": {"y": ONE}}, 1)
        for parts in ({0: [0b01, 0b10], -2: [0b01, 0]}, {-2: [0b01, 0], 0: [0b01, 0b10]}):
            f = ChainMap(c, c, parts)
            assert chain_defect(f) == oracles.chain_defect(f) == ("x", {"y": ONE + U}, {"y": ONE})
            assert chain_map_degree(f) is None

    def test_broken_map_detected(self):
        basis = GradedBasis((("x", 0), ("y", -2)))
        c = complex_from_rows(basis, {"x": {"y": ONE}}, 1)
        # d f(x) = y but f d(x) = 0
        broken = oracles.chain_map(c, c, {"x": {"x": ONE}})
        assert not is_chain_map(broken)
        pres = present_homology(c)
        with pytest.raises(NotChainMap):
            induced_map(broken, pres, pres)

    def test_mixed_degree_is_none(self, gc_primes):
        c = gc_primes["split2x2_2x2"]
        grading = c.basis.to_dict()
        labs = sorted(c.basis.labels(), key=grading.get)
        entries = {labs[0]: {labs[0]: ONE}, labs[-1]: {labs[0]: ONE}}
        assert grading[labs[0]] != grading[labs[-1]]
        assert chain_map_degree(oracles.chain_map(c, c, entries)) is None

    def test_homotopic_maps_agree_on_homology(self, gc_primes, rng):
        # g = id + d h + h d is pointwise different but homologous to id
        c = gc_primes["split2x2_2x2"]
        dmap = oracles.chain_map(c, c, c.boundary)
        h = _random_homotopy(c, rng)
        term = add_chain_maps(
            compose_chain_maps(dmap, h), compose_chain_maps(h, dmap)
        )
        assert any(p for row in term.entries.values() for p in row.values())
        ident = identity_chain_map(c)
        g = add_chain_maps(ident, term)
        assert is_chain_map(g) and chain_map_degree(g) == 0
        assert not chain_maps_equal(ident, g)
        assert maps_equal_on_homology(ident, g)

    def test_homology_equality_matches_linear_membership(self, gc_primes, rng):
        # dual route: (f - g) applied to any generator must be in im(d)
        c = gc_primes["split2x2_2x2"]
        dmap = oracles.chain_map(c, c, c.boundary)
        h = _random_homotopy(c, rng)
        term = add_chain_maps(
            compose_chain_maps(dmap, h), compose_chain_maps(h, dmap)
        )
        view = oracles.label_presentation(present_homology(c))
        mat, idx = _boundary_matrix(c)
        for rep in view.representatives:
            img = oracles.apply(term.entries, rep)
            rhs = [ZERO] * len(idx)
            for lab, p in img.items():
                rhs[idx[lab]] = p
            assert solve_linear(mat, rhs) is not None

    def test_homology_inequality_matches_linear_membership(self, gc_primes):
        # (1 + U) id moves a free tower generator off its class
        c = gc_primes["split2x2_2x2"]
        ident = identity_chain_map(c)
        u_map = scale_chain_map(ident, U)
        assert not maps_equal_on_homology(ident, u_map)
        view = oracles.label_presentation(present_homology(c))
        mat, idx = _boundary_matrix(c)
        diff = add_chain_maps(ident, u_map)
        hits = 0
        for rep in view.representatives:
            img = oracles.apply(diff.entries, rep)
            rhs = [ZERO] * len(idx)
            for lab, p in img.items():
                rhs[idx[lab]] = p
            if solve_linear(mat, rhs) is None:
                hits += 1
        assert hits > 0

    def test_endpoint_mismatch(self, gc_primes):
        a = identity_chain_map(gc_primes["unknot2"])
        b = identity_chain_map(gc_primes["unknot3"])
        with pytest.raises(NotChainMap):
            maps_equal_on_homology(a, b)


def _enumerated(g, depth):
    """The labels of a grid complex, or of a stack `depth` deep on one, in
    enumeration order: the states as permutations in lexicographic order,
    each label followed by its plus copy, then its minus copy, at each
    stabilization."""
    labels = list(itertools.permutations(range(g.n)))
    for _ in range(depth):
        labels = [(lab, tag) for lab in labels for tag in ("plus", "minus")]
    return labels


def _label_tensor(c, depth, gap):
    """c, a plain complex whose labels are stacked `depth` deep, tensored
    with a rank-2 module as label rows, with no columns: the tensor step
    that the columns of `oracles.tensor_rank2` replace.  Its elements are
    given in enumeration order, which `GradedBasis` sorts stably by
    grading."""
    tags = tuple(zip(("plus", "minus"), (0, gap)))
    grading = c.basis.to_dict()
    elements = tuple(
        ((lab, tag), grading[lab] - s) for lab in _enumerated(c.grid, depth) for tag, s in tags
    )
    boundary = {
        (src, tag): {(tgt, tag): p for tgt, p in row.items()}
        for src, row in c.boundary.items()
        for tag, _ in tags
    }
    return complex_from_rows(GradedBasis(elements), boundary, c.marking_count + 2, c.grid)


def _label_product(g: dict, f: dict) -> dict:
    """g after f, for label-keyed entries, row by row."""
    rows = {x: oracles.apply(g, row) for x, row in f.items()}
    return {x: row for x, row in rows.items() if row}


def _label_sum(f: dict, g: dict) -> dict:
    """f + g, for label-keyed entries."""
    rows = {}
    for x in f.keys() | g.keys():
        row = dict(f.get(x, {}))
        for y, q in g.get(x, {}).items():
            row[y] = row.get(y, ZERO) + q
        row = {y: q for y, q in row.items() if q}
        if row:
            rows[x] = row
    return rows


class TestMapColumns:
    """The parts form of chain maps, and the columns of stacked complexes."""

    def test_stacked_columns_match_the_label_tensor(self, gc_primes):
        # a stack shares its base's basis and columns; the oracle's bit copy
        # of it matches the label tensor, step by step
        s_v, s_w = derived_stab_offsets()
        for name, c in gc_primes.items():
            quasi, disk = quasi_stab_map(c, 0).tgt, disk_stab_map(c).tgt
            stacks = (
                (c, quasi, s_v),
                (c, disk, s_w),
                (quasi, disk_stab_map(quasi).tgt, s_w),
                (quasi, quasi_stab_map(quasi, 0).tgt, s_v),
                (disk, disk_stab_map(disk).tgt, s_w),
            )
            for base, stacked, gap in stacks:
                assert stacked.basis is c.basis and stacked.columns is c.columns, name
                plain = oracles.materialize(stacked)[0]
                copy = complex_from_rows(plain.basis, plain.boundary, plain.marking_count, plain.grid)
                want = _label_tensor(oracles.materialize(base)[0], len(base.tensor_stack), gap)
                assert plain.basis == want.basis, (name, stacked.tensor_stack)
                assert _columns(plain) == _columns(copy) == _columns(want), (
                    name, stacked.tensor_stack,
                )

    def test_degree_matches_the_entry_oracle(self, corpus, gc_primes):
        for name, g in corpus.items():
            c = gc_primes[name]
            maps = [identity_chain_map(c), renumber_map(c, range(c.marking_count))]
            for site in find_switch_sites(g):
                maps.append(band_map(c, BandMapChoice(site)))
                maps.append(band_map_raw(c, BandMapChoice(site, "nu_tilde")))
            for anchor in range(2 * g.n):
                stab = quasi_stab_map(c, anchor)
                for near in (anchor, same_letter_neighbors(g, anchor)[0]):
                    destab = quasi_destab_map(stab.tgt, near)
                    maps += [stab, destab, compose_chain_maps(destab, stab)]
            disk = disk_stab_map(c)
            destab = disk_destab_map(disk.tgt)
            maps += [disk, destab, compose_chain_maps(destab, disk)]
            for f in maps:
                assert chain_map_degree(f) == oracles.entry_degree(f), (name, f.tgt.tensor_stack)

    def test_mixed_and_zero_maps_have_no_degree(self, gc_primes):
        c = gc_primes["trefoil5"]
        site = find_switch_sites(c.grid)[0]
        assert chain_map_degree(band_map_raw(c, BandMapChoice(site, "nu_tilde"))) is None
        stab = quasi_stab_map(c, 0)  # anchor O1
        assert chain_map_degree(compose_chain_maps(quasi_destab_map(stab.tgt, 0), stab)) is None

    def test_defect_in_the_last_column_only(self):
        # f(q) = b with d b = c, and q, the last source column, is a cycle
        src = complex_from_rows(GradedBasis((("p", 2), ("q", 0))), {}, 1)
        basis = GradedBasis((("a", 2), ("b", 0), ("c", -2)))
        tgt = complex_from_rows(basis, {"b": {"c": ONE}}, 1)
        f = oracles.chain_map(src, tgt, {"p": {"a": ONE}, "q": {"b": ONE}})
        assert chain_map_degree(f) == 0
        assert not is_chain_map(f)
        assert oracles.chain_defect(f) == ("q", {"c": ONE}, {})

    def test_multi_part_maps_match_label_products(self, gc_primes):
        # nu_tilde and the flavor sum are not homogeneous: each is the sum of
        # two or more parts, and every product below mixes parts; on the
        # stack, the entries are those of the materialized maps
        c = gc_primes["trefoil5"]
        site = find_switch_sites(c.grid)[0]
        entries = oracles.entries
        for base in (c, quasi_stab_map(c, 0).tgt):
            nu = band_map_raw(base, BandMapChoice(site))
            tilde = band_map_raw(base, BandMapChoice(site, "nu_tilde"))
            flavor_sum = add_chain_maps(nu, tilde)
            back = band_map_raw(tilde.tgt, BandMapChoice(site))
            back_tilde = band_map_raw(tilde.tgt, BandMapChoice(site, "nu_tilde"))
            assert len(tilde.parts) == 2 and len(flavor_sum.parts) == 3
            assert entries(flavor_sum) == _label_sum(entries(nu), entries(tilde))
            assert not add_chain_maps(tilde, tilde).parts
            for g, f in ((back_tilde, tilde), (back, tilde), (back_tilde, nu),
                         (back_tilde, flavor_sum)):
                assert entries(compose_chain_maps(g, f)) == _label_product(entries(g), entries(f))
            labels = oracles.materialize(tilde.tgt)[0].basis.labels()
            one_plus_u = {lab: {lab: ONE + U} for lab in labels}
            for f in (tilde, flavor_sum):
                want = _label_product(one_plus_u, entries(f))
                assert entries(scale_chain_map(f, ONE + U)) == want
                plain = oracles.materialize_map(f)
                assert chain_maps_equal(plain, oracles.chain_map(plain.src, plain.tgt, plain.entries))
            assert chain_maps_equal(tilde, band_map_raw(base, BandMapChoice(site, "nu_tilde")))
            assert chain_maps_equal(add_chain_maps(flavor_sum, tilde), nu)
            assert not chain_maps_equal(tilde, nu)
            assert not chain_maps_equal(flavor_sum, scale_chain_map(nu, ONE + U))

    def test_one_plus_u_on_homology_matches_the_label_oracle(self, gc_primes):
        c = gc_primes["trefoil5"]
        for base in (c, quasi_stab_map(c, 0).tgt):
            f = scale_chain_map(identity_chain_map(base), ONE + U)
            assert len(f.parts) == 2
            pres = present_homology(base)
            view = oracles.label_presentation(pres)
            assert induced_map(f, pres, pres) == oracles.induced_map(f, view, view)

    def test_maps_between_other_gradings_are_refused(self):
        # same labels in the same order, but b sits at 4
        c = complex_from_rows(GradedBasis((("a", 0), ("b", 2))), {}, 1)
        other = complex_from_rows(GradedBasis((("a", 0), ("b", 4))), {}, 1)
        for op in (chain_maps_equal, add_chain_maps):
            with pytest.raises(NotChainMap, match="different endpoints"):
                op(identity_chain_map(c), identity_chain_map(other))

    def test_maps_on_other_words_are_refused(self, gc_primes):
        # the identity of a quasi-stabilized complex, and the same identity
        # on its plus words only: equal ends and base maps, other word maps
        c = gc_primes["unknot3"]
        stab = quasi_stab_map(c, 0)
        ident = identity_chain_map(stab.tgt)
        plus_only = compose_chain_maps(stab, quasi_destab_map(stab.tgt, 1))  # O2 is adjacent
        assert plus_only.parts == ident.parts and plus_only.words != ident.words
        for op in (chain_maps_equal, add_chain_maps):
            with pytest.raises(NotChainMap, match="different word maps"):
                op(ident, plus_only)
        zero = add_chain_maps(ident, ident)
        assert not zero.parts and chain_maps_equal(add_chain_maps(zero, plus_only), plus_only)

    def test_zero_maps_of_different_degrees_are_equal(self, gc_primes):
        c = gc_primes["unknot3"]
        zeros = [0] * len(c.basis)
        zero, shifted = ChainMap(c, c, {0: zeros}), ChainMap(c, c, {-2: zeros})
        assert chain_maps_equal(zero, shifted)
        ident = identity_chain_map(c)
        assert not chain_maps_equal(ident, scale_chain_map(ident, U))


class TestSmith:
    def test_frozen_small_matrix(self):
        M = [[ONE, U], [U, u_power(2)]]
        res = smith_reduce(M)
        assert res.diagonal == (ONE, ZERO)
        assert oracles.smith_certificate(M, res)

    def test_diagonal_input(self):
        res = smith_reduce([[U, ZERO], [ZERO, u_power(3)]])
        assert res.diagonal == (U, u_power(3))

    def test_zero_and_empty(self):
        assert smith_reduce([[ZERO]]).diagonal == (ZERO,)
        assert smith_reduce([]).diagonal == ()

    def test_rejects_non_monomial(self):
        with pytest.raises(NonHomogeneousEntry):
            smith_reduce([[ONE + U]])

    def test_against_oracle(self, rng):
        for _ in range(100):
            M = oracles.random_graded_monomial_matrix(rng, max_dim=6)
            res = smith_reduce(M)
            assert res.diagonal == oracles.naive_smith_diagonal(M)
            assert oracles.smith_certificate(M, res)

    def test_against_determinantal_divisors(self, rng):
        for _ in range(40):
            M = oracles.random_graded_monomial_matrix(rng, max_dim=4)
            got = [d for d in smith_reduce(M).diagonal if d]
            assert got == oracles.invariant_factors_from_divisors(M)

    def test_divisibility_chain(self, rng):
        for _ in range(60):
            M = oracles.random_graded_monomial_matrix(rng, max_dim=8)
            diag = smith_reduce(M).diagonal
            for a, b in itertools.pairwise(diag):
                if a and b:
                    assert poly_divmod(b, a)[1] == ZERO
                if not a:
                    assert not b

    def test_solve_linear_frozen(self):
        mat = [[U, ONE], [ZERO, U]]
        rhs = [U + u_power(2), u_power(2)]
        sol = solve_linear(mat, rhs)
        assert sol == [U, U]

    def test_solve_linear_unsolvable(self):
        assert solve_linear([[U]], [ONE]) is None
        assert solve_linear([[ZERO]], [ONE]) is None
        # forced b = U leaves U a = 1 with no solution
        assert solve_linear([[U, ONE], [ZERO, U]], [ONE + U, u_power(2)]) is None

    def test_solve_linear_random_consistency(self, rng):
        for _ in range(40):
            M = oracles.random_graded_monomial_matrix(rng, max_dim=5)
            v = [u_power(rng.randint(0, 3)) if rng.random() < 0.7 else ZERO
                 for _ in M[0]]
            rhs = []
            for row in M:
                acc = ZERO
                for a, x in zip(row, v):
                    acc = acc + a * x
                rhs.append(acc)
            sol = solve_linear(M, rhs)
            assert sol is not None
            for row, want in zip(M, rhs):
                acc = ZERO
                for a, x in zip(row, sol):
                    acc = acc + a * x
                assert acc == want
