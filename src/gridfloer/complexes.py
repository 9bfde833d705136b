"""Grid states, the doubled delta grading, and the boundary operators.

States of an n x n grid are permutations: state[c] is the row of the lattice
point in column c.  The boundary counts empty toroidal rectangles between
states differing in exactly two columns; coefficients record the markings a
rectangle covers, either as one variable per marking or specialized to a
single U.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

from .algebra import (
    MULTI,
    SINGLE,
    ExponentVector,
    GradedBasis,
    MonomialComplex,
    u_power,
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
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    for i, v in enumerate(state):
        fact //= n - i if n - i else 1
        rank += fact * sum(1 for u in state[i + 1 :] if u < v)
    return rank


def _open_quadrant_pairs(P, Q) -> int:
    """Pairs (p, q) with q strictly up and to the right of p."""
    return sum(1 for pc, pr in P for qc, qr in Q if qc > pc and qr > pr)


def _grid_grading_part(g: GridDiagram) -> tuple[list, list, int]:
    """The state-independent part of `delta_grading`: the doubled O and X
    coordinates and OO + XX + (n - l) + 2, where OO and XX count marking
    pairs in open first-quadrant position and l is the component count."""
    n = g.n
    Os = [(2 * g.o_col[r] + 1, 2 * r + 1) for r in range(n)]
    Xs = [(2 * g.x_col[r] + 1, 2 * r + 1) for r in range(n)]
    l = link_topology(g).component_count
    const = _open_quadrant_pairs(Os, Os) + _open_quadrant_pairs(Xs, Xs) + (n - l) + 2
    return Os, Xs, const


def delta_grading(g: GridDiagram, state: State, grid_part=None) -> int:
    """Doubled delta grading of a state.

    Computed in doubled coordinates so that lattice points (2c, 2r) and
    markings (2c+1, 2r+1) never share a coordinate line; "first quadrant"
    is open (strict inequalities).  `grid_part` is `_grid_grading_part(g)`,
    passed by callers that grade every state of one grid.
    """
    Os, Xs, const = grid_part or _grid_grading_part(g)
    S = [(2 * c, 2 * state[c]) for c in range(g.n)]
    i_ss = _open_quadrant_pairs(S, S)
    j_oo = i_ss - _open_quadrant_pairs(S, Os) - _open_quadrant_pairs(Os, S)
    j_xx = i_ss - _open_quadrant_pairs(S, Xs) - _open_quadrant_pairs(Xs, S)
    return j_oo + j_xx + const


def _graded_basis(g: GridDiagram, states: list[State]) -> GradedBasis:
    part = _grid_grading_part(g)
    return GradedBasis(tuple((s, delta_grading(g, s, part)) for s in states))


@dataclass(frozen=True)
class Rectangle:
    """A toroidal rectangle spanning columns [c1, c2) and rows [r1, r2),
    both wrapping mod n, with its covered-marking monomial and the number
    of state points strictly inside."""

    n: int
    c1: int
    r1: int
    c2: int
    r2: int
    weight: ExponentVector
    interior_points: int

    @property
    def width(self) -> int:
        return (self.c2 - self.c1) % self.n

    @property
    def height(self) -> int:
        return (self.r2 - self.r1) % self.n

    def contains_cell(self, c: int, r: int) -> bool:
        """True when the marking cell (c, r) lies under the rectangle."""
        return (c - self.c1) % self.n < self.width and (r - self.r1) % self.n < self.height


def _make_rectangle(g: GridDiagram, x: State, a: int, s: int, w: int, h: int) -> Rectangle:
    n = g.n
    interior = 0
    for dc in range(1, w):
        if 0 < (x[(a + dc) % n] - s) % n < h:
            interior += 1
    exps = []
    for r in range(n):
        if (g.o_col[r] - a) % n < w and (r - s) % n < h:
            exps.append((r, 1))
        if (g.x_col[r] - a) % n < w and (r - s) % n < h:
            exps.append((n + r, 1))
    return Rectangle(
        n, a, s, (a + w) % n, (s + h) % n, ExponentVector.make(exps), interior
    )


def candidate_rectangles(g: GridDiagram, x: State, y: State) -> list[Rectangle]:
    """The toroidal rectangles connecting x to y before the emptiness filter:
    two complementary candidates when the states differ in exactly two
    columns, none otherwise."""
    n = g.n
    diff = [c for c in range(n) if x[c] != y[c]]
    if len(diff) != 2:
        return []
    c1, c2 = diff
    if y[c1] != x[c2] or y[c2] != x[c1]:
        return []
    r1, r2 = x[c1], x[c2]
    return [
        _make_rectangle(g, x, a, s, (b - a) % n, (t - s) % n)
        for a, b, s, t in ((c1, c2, r1, r2), (c2, c1, r2, r1))
    ]


def rectangles(g: GridDiagram, x: State, y: State) -> list[Rectangle]:
    """The empty rectangles connecting x to y (no state point inside)."""
    return [r for r in candidate_rectangles(g, x, y) if r.interior_points == 0]


def build_complex(g: GridDiagram, cap: int = DEFAULT_STATE_CAP) -> MonomialComplex:
    """The multivariable complex: entries are sets of exponent vectors."""
    states = enumerate_states(g.n, cap)
    n = g.n
    pairs = list(itertools.combinations(range(n), 2))

    def row_for(x: State) -> dict:
        row: dict = {}
        for c1, c2 in pairs:
            r1, r2 = x[c1], x[c2]
            y = list(x)
            y[c1], y[c2] = r2, r1
            ty = tuple(y)
            for a, b, s, t in ((c1, c2, r1, r2), (c2, c1, r2, r1)):
                rect = _make_rectangle(g, x, a, s, (b - a) % n, (t - s) % n)
                if rect.interior_points:
                    continue
                bucket = row.setdefault(ty, set())
                if rect.weight in bucket:
                    bucket.remove(rect.weight)
                else:
                    bucket.add(rect.weight)
        return {ty: frozenset(evs) for ty, evs in row.items() if evs}

    rows = [row_for(x) for x in states]
    boundary = {x: row for x, row in zip(states, rows) if row}
    return MonomialComplex(_graded_basis(g, states), boundary, 2 * n, MULTI, grid=g)


# The single-variable complexes alive in this process, by grid.  The values
# are weak: a complex is reused only while some caller still holds it, so a
# grid built several times within one computation (a band map's target
# complex, rebuilt by the reverse move) is built once, and nothing outlives
# the computation that built it.
_GC_PRIME_ALIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def build_gc_prime(g: GridDiagram, cap: int = DEFAULT_STATE_CAP) -> MonomialComplex:
    """The single-variable complex: every marking variable set to U.

    Equals specialize(build_complex(g), "all") but is built directly with
    prefix-summed rectangle weights.  While a complex of an equal grid is
    still held elsewhere, that same (immutable) complex is returned.
    """
    _check_cap(g.n, cap)
    c = _GC_PRIME_ALIVE.get(g)
    if c is None:
        c = _GC_PRIME_ALIVE[g] = _build_gc_prime(g)
    return c


def _build_gc_prime(g: GridDiagram) -> MonomialComplex:
    states = list(itertools.permutations(range(g.n)))
    n = g.n
    o, x_col = g.o_col, g.x_col

    # 2n x 2n prefix sums of marking counts for O(1) rectangle weights
    cell = [[0] * n for _ in range(n)]  # cell[c][r]
    for r in range(n):
        cell[o[r]][r] += 1
        cell[x_col[r]][r] += 1
    m = 2 * n
    pref = [[0] * (m + 1) for _ in range(m + 1)]
    for c in range(m):
        col_counts = cell[c % n]
        pc, pc1 = pref[c], pref[c + 1]
        for r in range(m):
            pc1[r + 1] = col_counts[r % n] + pc1[r] + pc[r + 1] - pc[r]

    pairs = list(itertools.combinations(range(n), 2))

    def row_for(x: State) -> dict:
        per_target: dict = {}
        for c1, c2 in pairs:
            r1, r2 = x[c1], x[c2]
            y = list(x)
            y[c1], y[c2] = r2, r1
            ty = tuple(y)
            for a, b, s, t in ((c1, c2, r1, r2), (c2, c1, r2, r1)):
                w = (b - a) % n
                h = (t - s) % n
                clear = True
                for dc in range(1, w):
                    if 0 < (x[(a + dc) % n] - s) % n < h:
                        clear = False
                        break
                if not clear:
                    continue
                wt = pref[a + w][s + h] - pref[a][s + h] - pref[a + w][s] + pref[a][s]
                bucket = per_target.setdefault(ty, set())
                if wt in bucket:
                    bucket.remove(wt)
                else:
                    bucket.add(wt)
        row: dict = {}
        for ty, wts in per_target.items():
            if not wts:
                continue
            if len(wts) > 1:
                raise NotHomogeneous(
                    f"surviving rectangles {x} -> {ty} have mixed weights {sorted(wts)}"
                )
            row[ty] = u_power(next(iter(wts)))
        return row

    rows = [row_for(x) for x in states]
    boundary = {x: row for x, row in zip(states, rows) if row}
    return MonomialComplex(_graded_basis(g, states), boundary, 2 * n, SINGLE, grid=g)


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
    expected = expected_curvature(g)
    sq = boundary_squared(c)
    for state in c.basis.labels():
        row = sq.get(state, {})
        if set(row) != {state} or row[state] != expected:
            return False
    return True
