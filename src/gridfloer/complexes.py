"""Grid states, the doubled delta grading, and the boundary operators.

States of an n x n grid are permutations: state[c] is the row of the lattice
point in column c.  The boundary counts empty toroidal rectangles between
states differing in exactly two columns; coefficients record the markings a
rectangle covers, either as one variable per marking or specialized to a
single U.

Markings are numbered as the variables of `ExponentVector`: the O in row r
is marking r and the X in row r is marking n + r.  Both builders read one
rectangle walk, `_empty_rectangles`, which gives a state's row: each empty
rectangle's target, found by an integer code, and its covered markings as
a mask with bit i set for marking i.  Equal masks to one target cancel;
two different masks reach the builder as a pair; no row order is read.
`build_complex` turns a mask into the exponent vector of those variables.
`build_gc_prime` checks U to the power of its bit count against the
gradings and sets one bit of a column over the grading-ordered basis.
"""
from __future__ import annotations

import functools
import itertools
import math
import weakref
from operator import getitem, lt, mul

from .algebra import (
    MULTI,
    SINGLE,
    ExponentVector,
    GradedBasis,
    MonomialComplex,
)
from .errors import CapExceeded, NotHomogeneous
from .grids import GridDiagram, link_topology

DEFAULT_STATE_CAP = 8

State = tuple[int, ...]


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(f"grid size {n} exceeds the state cap {cap}")


def enumerate_states(n: int, cap: int = DEFAULT_STATE_CAP) -> list[State]:
    """All n! states in lexicographic order; refuses sizes above the cap."""
    _check_cap(n, cap)
    return list(itertools.permutations(range(n)))


def lehmer_rank(state: State) -> int:
    """Rank of a permutation in lexicographic order."""
    n = len(state)
    rank = 0
    for i, v in enumerate(state):
        rank += math.factorial(n - 1 - i) * sum(1 for u in state[i + 1 :] if u < v)
    return rank


def _grid_grading_part(g: GridDiagram) -> tuple[list[list[int]], int]:
    """The state-independent part of `delta_grading`.

    Returns a table and a constant.  table[c][r] counts the markings (O and
    X) in open first-quadrant position from the lattice point (c, r) plus
    the markings from which (c, r) is in open first-quadrant position.  The
    constant is OO + XX + (n - l) + 2, where OO and XX count marking pairs
    in open first-quadrant position and l is the component count.
    """
    n = g.n
    # in doubled coordinates a marking (2m+1) is right of / above a lattice
    # line (2c) iff m >= c, and left of / below it iff m < c
    marks = [(g.o_col[r], r) for r in range(n)] + [(g.x_col[r], r) for r in range(n)]
    table = [
        [
            sum(1 for mc, mr in marks if (mc >= c and mr >= r) or (mc < c and mr < r))
            for r in range(n)
        ]
        for c in range(n)
    ]

    def ordered_pairs(cols: tuple[int, ...]) -> int:
        # marking pairs (p, q), q strictly up and to the right of p; the
        # markings of one kind sit one per row and one per column
        return sum(1 for r, s in itertools.combinations(range(n), 2) if cols[s] > cols[r])

    l = link_topology(g).component_count
    return table, ordered_pairs(g.o_col) + ordered_pairs(g.x_col) + (n - l) + 2


def delta_grading(g: GridDiagram, state: State, grid_part=None) -> int:
    """Doubled delta grading of a state.

    In doubled coordinates lattice points (2c, 2r) and markings (2c+1, 2r+1)
    never share a coordinate line, and "first quadrant" is open (strict
    inequalities).  With I(P, Q) the pairs p in P, q in Q with q up and to
    the right of p, and x the state's points, the grading is
    J(x-O, x-O) + J(x-X, x-X) + (n - l) + 2, which expands to
    2 I(x, x) - sum over the points of x of `table[c][x[c]]` + const, with
    (table, const) = `_grid_grading_part(g)`.  Callers that grade every
    state of one grid pass that as `grid_part`.
    """
    table, const = grid_part or _grid_grading_part(g)
    i_ss = sum(itertools.starmap(lt, itertools.combinations(state, 2)))
    return 2 * i_ss - sum(map(getitem, table, state)) + const


def _graded_basis(g: GridDiagram, states: list[State]) -> GradedBasis:
    part = _grid_grading_part(g)
    return GradedBasis(tuple((s, delta_grading(g, s, part)) for s in states))


def _marking_prefix(g: GridDiagram) -> list[list[int]]:
    """2n x 2n prefix sums over the doubled torus in which each marking
    contributes its own bit: O in row r is bit r, X in row r is bit n + r
    (the variable indices of `ExponentVector`).  A rectangle narrower and
    shorter than n covers each marking at most once, so inclusion-exclusion
    on it gives exactly the mask of the markings it covers."""
    n = g.n
    cell = [[0] * n for _ in range(n)]  # cell[c][r]
    for r in range(n):
        cell[g.o_col[r]][r] |= 1 << r
        cell[g.x_col[r]][r] |= 1 << (n + r)
    m = 2 * n
    pref = [[0] * (m + 1) for _ in range(m + 1)]
    for c in range(m):
        col_bits = cell[c % n]
        pc, pc1 = pref[c], pref[c + 1]
        for r in range(m):
            pc1[r + 1] = col_bits[r % n] + pc1[r] + pc[r + 1] - pc[r]
    return pref


def _empty_rectangles(
    n: int, pref: list[list[int]], place: list[int], key: dict, x: State, code: int
) -> dict:
    """The empty rectangles out of state x, as one row {target key: mask}.

    A rectangle has its lower-left corner at the point (a, x[a]) and its
    upper-right corner at (b, x[b]).  Walking right from column a, the
    rectangle to column b is empty iff its height (x[b] - x[a]) mod n is
    below every height passed on the way (the running ceiling), and no
    later rectangle can be empty once the ceiling is 1.  With code(x) =
    sum of x[i] n^i (`place[b]` = n^(b mod n)), swapping columns a and c
    gives code(y) = code(x) + (x[c] - x[a]) (n^a - n^c), and `key` maps a
    code to the builder's key for that state.  Two rectangles to one target
    cancel if their masks are equal, and else stay as the pair (first,
    second) for the builder.  Nothing reads the order of the row.
    """
    row: dict = {}
    xx = x + x
    for a in range(n):
        s = x[a]
        pa = place[a]
        pref_a = pref[a]
        ceiling = n
        for b in range(a + 1, a + n):
            d = xx[b] - s
            h = d % n
            if h < ceiling:
                ceiling = h
                t = s + h
                pref_b = pref[b]
                mask = pref_b[t] - pref_a[t] - pref_b[s] + pref_a[s]
                y = key[code + d * (pa - place[b])]
                first = row.pop(y, None)
                if first != mask:  # a second, equal mask cancels the first
                    row[y] = mask if first is None else (first, mask)
                if h == 1:
                    break
    return row


def _codes(n: int, states: list[State]) -> tuple[list[int], list[int]]:
    """`place` for the walk, and each state's code."""
    place = [n ** (i % n) for i in range(2 * n)]
    return place, [sum(map(mul, x, place)) for x in states]


def build_complex(g: GridDiagram, cap: int = DEFAULT_STATE_CAP) -> MonomialComplex:
    """The multivariable complex: entries are sets of exponent vectors, one
    frozenset shared per set of masks."""
    states = enumerate_states(g.n, cap)
    n = g.n
    pref = _marking_prefix(g)
    place, codes = _codes(n, states)
    key = dict(zip(codes, states))

    @functools.cache
    def single(mask: int) -> frozenset:
        ev = ExponentVector(tuple((i, 1) for i in range(2 * n) if mask >> i & 1))
        return frozenset((ev,))

    pairs: dict[frozenset, frozenset] = {}
    boundary: dict = {}
    for x, code in zip(states, codes):
        row = {}
        for y, mask in _empty_rectangles(n, pref, place, key, x, code).items():
            if type(mask) is int:
                row[y] = single(mask)
            else:  # two rectangles: the F2 sum of their monomials
                both = single(mask[0]) ^ single(mask[1])
                if both:
                    row[y] = pairs.setdefault(both, both)
        if row:
            boundary[x] = row
    return MonomialComplex(_graded_basis(g, states), boundary, 2 * n, MULTI, grid=g)


# The single-variable complexes alive in this process, by grid.  The values
# are weak: a complex is reused only while some caller still holds it, so a
# grid built several times within one computation (a band map's target
# complex, rebuilt by the reverse move) is built once, and nothing outlives
# the computation that built it.
_GC_PRIME_ALIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def build_gc_prime(g: GridDiagram, cap: int = DEFAULT_STATE_CAP) -> MonomialComplex:
    """The single-variable complex: every marking variable set to U.

    Equals `build_complex(g)` with every variable of each exponent vector
    sent to U and equal monomials cancelled, built from the same rectangle
    walk with each rectangle weighted by its marking count.
    While a complex of an equal grid is still held elsewhere, that same
    (immutable) complex is returned.
    """
    _check_cap(g.n, cap)
    c = _GC_PRIME_ALIVE.get(g)
    if c is None:
        c = _GC_PRIME_ALIVE[g] = _build_gc_prime(g)
    return c


def _build_gc_prime(g: GridDiagram) -> MonomialComplex:
    """The single-variable complex as the columns that `_columns` returns,
    each entry checked against the gradings."""
    states = enumerate_states(g.n, g.n)  # build_gc_prime checked the cap
    n = g.n
    basis = _graded_basis(g, states)
    labels, gradings = basis.labels(), basis.gradings()
    place, codes = _codes(n, labels)
    position = {code: j for j, code in enumerate(codes)}
    pref = _marking_prefix(g)
    cols = [0] * len(states)
    for j, x in enumerate(labels):
        col = 0
        low = gradings[j] - 2  # U^k reaches gradings[j] - 2 + 2k
        for t, mask in _empty_rectangles(n, pref, place, position, x, codes[j]).items():
            if type(mask) is not int:  # two rectangles: U^k + U^k cancels
                weights = sorted((mask[0].bit_count(), mask[1].bit_count()))
                if weights[0] == weights[1]:
                    continue
                raise NotHomogeneous(
                    f"surviving rectangles {x} -> {labels[t]} have mixed weights {weights}"
                )
            k = mask.bit_count()
            if gradings[t] - 2 * k != low:
                raise NotHomogeneous(
                    f"entry {x}->{labels[t]} = U^{k} breaks grading: "
                    f"{gradings[j]} - {gradings[t]} != {2 - 2 * k}"
                )
            col |= 1 << t
        cols[j] = col
    return MonomialComplex(basis, None, 2 * n, SINGLE, g, (), cols)


def dump_complex(c: MonomialComplex) -> str:
    """Text dump: a header with n and the graded ranks, then one line per
    nonzero entry `src_rank tgt_rank exponent_vector`."""
    g = c.grid
    lines = [f"n = {g.n}"]
    gradings = sorted({d for _, d in c.basis.elements}, reverse=True)
    for d in gradings:
        count = sum(1 for _, dd in c.basis.elements if dd == d)
        lines.append(f"# grading {d}: {count} states")
    for src, tgt, val in sorted(
        c.entries(), key=lambda e: (lehmer_rank(e[0]), lehmer_rank(e[1]))
    ):
        if c.ring == SINGLE:
            ev = " ".join(f"U^{k}" for k in sorted(val.terms))
        else:
            parts = []
            for mono in sorted(val, key=lambda e: e.exps):
                parts.append(
                    "*".join(f"u{i}^{e}" for i, e in mono.exps) or "1"
                )
            ev = " + ".join(parts)
        lines.append(f"{lehmer_rank(src)} {lehmer_rank(tgt)} {ev}")
    return "\n".join(lines) + "\n"


def expected_curvature(g: GridDiagram) -> frozenset[ExponentVector]:
    """The diagonal entry that the squared multivariable boundary must equal:
    over every column and every row, the product of the variables of the two
    markings in that line."""
    n = g.n
    o_row_of_col = {g.o_col[r]: r for r in range(n)}
    x_row_of_col = {g.x_col[r]: r for r in range(n)}
    acc: set[ExponentVector] = set()
    for c in range(n):
        ev = ExponentVector.make([(o_row_of_col[c], 1), (n + x_row_of_col[c], 1)])
        acc.symmetric_difference_update({ev})
    for r in range(n):
        ev = ExponentVector.make([(r, 1), (n + r, 1)])
        acc.symmetric_difference_update({ev})
    return frozenset(acc)


def verify_curvature(g: GridDiagram, cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff the multivariable boundary squares to the curvature diagonal."""
    from .algebra import boundary_squared

    c = build_complex(g, cap)
    # exponent tuples compare in C, with no dataclass __eq__ or __hash__ call
    expected = {ev.exps for ev in expected_curvature(g)}
    sq = boundary_squared(c)
    for state in c.basis.labels():
        row = sq.get(state, {})
        if set(row) != {state} or {ev.exps for ev in row[state]} != expected:
            return False
    return True
