"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against textbook
definitions: polynomial arithmetic on raw bitmasks, a naive dense Smith
reduction, determinantal divisors, winding-number determinants, plain
GF(2) rank, and the pivot cancellation (`_Reduction`) that computed
homology before the column reduction, with its presentation tracked in
`PolyF2U` arithmetic.  None of it shares reduction logic with the package.

The package computes each result one way; the second ways live here:
- `smith_reduce` (Smith normal form with its transforms), `solve_linear`
  and `poly_divmod`, the dense tools checked against `naive_smith_diagonal`
  and `smith_certificate`;
- `ExponentVector`, a multivariable monomial as (variable, exponent)
  pairs with no bound on either, and `code` and `vector`, the one pair
  that converts it to and from the package's two-bit code: the oracles
  below compute with exponent vectors, read a built complex's codes
  through `vector`, and `coded` turns their rows into the package's form;
- `rectangles`, the reference rectangle walk (one candidate pair at a
  time, an explicit `Rectangle` per candidate), which `rectangle_boundary`
  reads to check the builders' running-ceiling walk;
- `complex_from_rows`, the one way a test builds a single-variable
  complex by hand: label-keyed `PolyF2U` rows turned into the columns the
  package stores, each entry checked against the gradings on the way
  (`is_homogeneous` asks the same of any rows), and `MultiComplex`, a
  hand-built multivariable complex as label-keyed rows;
- `specialize`, the quotient of a multivariable complex that sends every
  variable to U ("all", the builder oracle) or all but two to
  `COMMON_VARIABLE` (keep-two, a `MultiComplex`); a bad policy raises
  ValueError;
- `label_row_gc_prime`, the builder of label-keyed `PolyF2U` rows, which
  reads marking masks off its own prefix sums (`marking_prefix`), not the
  package's line masks, and `back_substituted_rows`, the projection rows one
  row at a time, `per_entry_gc_prime`, the package's build with each
  entry checked against the gradings on its own, and `_class_gaps`, each
  class's grading gap read off every entry of the pattern: replaced fast
  paths kept as oracles for the ones that replaced them;
- `chain_defect` and `entry_degree`, the chain condition and the degree of
  a map read off its label-keyed entries, for the parts form of maps, and
  `chain_map`, which splits hand-built label-keyed entries into parts;
- `complement_band_map`, the band map with the complementary
  U-placement (the `nu_tilde` flavor the package once offered), which is
  never a chain map: a reference for the package's rule and the fault
  map the tests patch in for `cobordism.band_map_raw`;
- `add_chain_maps`, `band_map_sum` and `truncated`: the sum of two maps,
  the sum of the band map and its complement at a site (the flavor sum
  that acceptance criterion 08 expects to fail the chain condition) and
  reduction mod U^k, which only the tests use;
- `LabelPresentation`, `label_presentation` (the package's bitset
  presentation read through `implied_vector`), `project` and
  `induced_map`: homology presentations and induced maps as label-keyed
  `PolyF2U` vectors, the form the package's F2 `induced_map` replaced;
- `tensor_rank2`, `materialize` and `materialize_map`: a stabilized
  complex, which the package keeps as its base and its stack, copied bit
  by bit into the plain complex it stands for, and a base map tensored
  with a word map copied into a map of those.  Every function here that
  takes a complex, a map or a presentation reads a stacked one through
  them, so its labels are the stacked labels (state, tag), nested.
"""
from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from gridfloer import (
    ONE,
    ZERO,
    BandMapChoice,
    BrokenInvariant,
    ChainMap,
    GradedBasis,
    GridDiagram,
    GridFloerError,
    HomologyGenerator,
    MonomialComplex,
    NotHomogeneous,
    PolyF2U,
    band_map_raw,
    link_topology,
    site_diagonal,
    u_power,
)
from gridfloer.algebra import _columns, _require_alike, _summed
from gridfloer.cobordism import _require_band_chain_map
from gridfloer.complexes import State


class NonHomogeneousEntry(GridFloerError):
    """A matrix entry of a hand-built complex or matrix is not a single
    monomial."""


# ---------------------------------------------------------------------------
# raw F2[U] arithmetic on int bitmasks (bit k = coefficient of U^k)


def _pmul(a: int, b: int) -> int:
    acc = 0
    k = 0
    while b:
        if b & 1:
            acc ^= a << k
        b >>= 1
        k += 1
    return acc


def _pdeg(a: int) -> int:
    return a.bit_length() - 1


def _pdivmod(a: int, b: int) -> tuple[int, int]:
    q = 0
    db = _pdeg(b)
    while _pdeg(a) >= db:
        s = _pdeg(a) - db
        a ^= b << s
        q ^= 1 << s
    return q, a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return a


# ---------------------------------------------------------------------------
# naive dense Smith reduction (diagonal only)


def naive_smith_diagonal(matrix: list[list[PolyF2U]]) -> tuple[PolyF2U, ...]:
    """Textbook Smith reduction over F2[U] by repeated scanning.

    Mutates a dense copy: pick the minimum-degree nonzero entry of the
    trailing block, move it to the corner, clear its row and column with
    division steps, fold in any entry the corner does not divide, recurse.
    """
    M = [[e.bits for e in row] for row in matrix]
    nr = len(M)
    nc = len(M[0]) if nr else 0
    diag: list[int] = []
    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if M[i][j] and (best is None or _pdeg(M[i][j]) < _pdeg(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        M[t], M[bi] = M[bi], M[t]
        for row in M:
            row[t], row[bj] = row[bj], row[t]
        restart = False
        for i in range(t + 1, nr):
            if M[i][t]:
                q, r = _pdivmod(M[i][t], M[t][t])
                for j in range(t, nc):
                    M[i][j] ^= _pmul(q, M[t][j])
                if r:
                    restart = True
        for j in range(t + 1, nc):
            if M[t][j]:
                q, r = _pdivmod(M[t][j], M[t][t])
                for i in range(t, nr):
                    M[i][j] ^= _pmul(q, M[i][t])
                if r:
                    restart = True
        if restart:
            continue
        folded = False
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if M[i][j] and _pdivmod(M[i][j], M[t][t])[1]:
                    for jj in range(t, nc):
                        M[t][jj] ^= M[i][jj]
                    folded = True
                    break
            if folded:
                break
        if folded:
            continue
        diag.append(M[t][t])
        t += 1
    while len(diag) < min(nr, nc):
        diag.append(0)
    return tuple(PolyF2U(d) for d in diag)


# ---------------------------------------------------------------------------
# determinants and determinantal divisors


def poly_det(matrix: list[list[PolyF2U]]) -> PolyF2U:
    """Fraction-free (Bareiss) determinant over F2[U]."""
    M = [[e.bits for e in row] for row in matrix]
    n = len(M)
    if n == 0:
        return PolyF2U(1)
    prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return PolyF2U(0)
            M[k], M[swap] = M[swap], M[k]  # char 2: no sign to track
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _pmul(M[i][j], M[k][k]) ^ _pmul(M[i][k], M[k][j])
                q, r = _pdivmod(num, prev) if prev != 1 else (num, 0)
                if r:
                    raise ArithmeticError("Bareiss division must be exact")
                M[i][j] = q
        prev = M[k][k]
    return PolyF2U(M[n - 1][n - 1])


def determinantal_divisors(matrix: list[list[PolyF2U]]) -> list[PolyF2U]:
    """d_k = gcd of all k x k minors; invariant factors are d_k / d_{k-1}."""
    nr = len(matrix)
    nc = len(matrix[0]) if nr else 0
    out = []
    for k in range(1, min(nr, nc) + 1):
        acc = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                acc = _pgcd(acc, poly_det(sub).bits)
        out.append(PolyF2U(acc))
        if not acc:
            break
    return out


def invariant_factors_from_divisors(matrix: list[list[PolyF2U]]) -> list[PolyF2U]:
    divisors = determinantal_divisors(matrix)
    out = []
    prev = 1
    for d in divisors:
        if not d.bits:
            break
        q, r = _pdivmod(d.bits, prev)
        if r:
            raise ArithmeticError("determinantal divisors must form a chain")
        out.append(PolyF2U(q))
        prev = d.bits
    return out


def mat_mul(A, B):
    return [
        [
            sum((A[i][k] * B[k][j] for k in range(len(B))), PolyF2U(0))
            for j in range(len(B[0]))
        ]
        for i in range(len(A))
    ]


def smith_certificate(matrix, result) -> bool:
    """P M Q diagonal with unit transform determinants and a divisor chain."""
    nr = len(matrix)
    nc = len(matrix[0]) if nr else 0
    P = [list(r) for r in result.row_transform]
    Q = [list(r) for r in result.col_transform]
    D = mat_mul(mat_mul(P, matrix), Q) if nr and nc else []
    for i in range(nr):
        for j in range(nc):
            want = result.diagonal[i] if i == j and i < len(result.diagonal) else PolyF2U(0)
            if D[i][j] != want:
                return False
    if nr and poly_det(P).bits != 1:
        return False
    if nc and poly_det(Q).bits != 1:
        return False
    diag = list(result.diagonal)
    for i in range(len(diag) - 1):
        if not diag[i] and diag[i + 1]:
            return False
        if diag[i] and diag[i + 1] and _pdivmod(diag[i + 1].bits, diag[i].bits)[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# random graded matrices for Smith-form fuzzing


def random_graded_monomial_matrix(rng, max_dim: int = 12, max_exp: int = 4):
    """Monomial matrix graded by row/column weights.

    Each nonzero entry's exponent equals half the (even) weight difference,
    so every product of entries along equal index paths matches, the shape
    Smith reduction is used on in practice.
    """
    nr = rng.randint(1, max_dim)
    nc = rng.randint(1, max_dim)
    row_w = [2 * rng.randint(0, max_exp) for _ in range(nr)]
    col_w = [2 * rng.randint(0, max_exp) for _ in range(nc)]
    M = []
    for i in range(nr):
        row = []
        for j in range(nc):
            k = (col_w[j] - row_w[i]) // 2
            if 0 <= k <= max_exp and rng.random() < 0.55:
                row.append(u_power(k))
            else:
                row.append(PolyF2U(0))
        M.append(row)
    return M


# ---------------------------------------------------------------------------
# Smith normal form over F2[U] with recorded transforms, and linear solving


def poly_divmod(a: PolyF2U, b: PolyF2U) -> tuple[PolyF2U, PolyF2U]:
    """Long division in F2[U]: a = q*b + r with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    q, r, db = 0, a.bits, b.bits.bit_length() - 1
    while r.bit_length() - 1 >= db:
        shift = r.bit_length() - 1 - db
        r ^= b.bits << shift
        q ^= 1 << shift
    return PolyF2U(q), PolyF2U(r)


@dataclass(frozen=True)
class SmithResult:
    """P @ M @ Q == D with P, Q invertible over F2[U] and D diagonal with
    each entry dividing the next."""

    diagonal: tuple[PolyF2U, ...]
    row_transform: tuple[tuple[PolyF2U, ...], ...]  # P, rows x rows
    col_transform: tuple[tuple[PolyF2U, ...], ...]  # Q, cols x cols


def _mat_identity(m: int) -> list[list[PolyF2U]]:
    return [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]


def smith_reduce(matrix) -> SmithResult:
    """Diagonalize a monomial matrix over F2[U] with recorded transforms.

    Entries must each be a single monomial or zero (NonHomogeneousEntry
    otherwise); intermediate arithmetic is carried out in full F2[U].
    """
    M = [[entry for entry in row] for row in matrix]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    for row in M:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        for entry in row:
            if entry and not entry.is_monomial():
                raise NonHomogeneousEntry(f"entry {entry} is not a monomial")
    P = _mat_identity(nrows)
    Q = _mat_identity(ncols)

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        P[i], P[j] = P[j], P[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in Q:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q: PolyF2U):
        # row_dst += q * row_src
        for c in range(ncols):
            M[dst][c] = M[dst][c] + q * M[src][c]
        for c in range(nrows):
            P[dst][c] = P[dst][c] + q * P[src][c]

    def add_col(dst, src, q: PolyF2U):
        for r in range(nrows):
            M[r][dst] = M[r][dst] + q * M[r][src]
        for r in range(ncols):
            Q[r][dst] = Q[r][dst] + q * Q[r][src]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate a nonzero entry of minimal degree in the trailing block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if M[i][j]:
                    d = M[i][j].degree()
                    if pivot is None or d < pivot[0]:
                        pivot = (d, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, nrows):
            if M[i][t]:
                q, r = poly_divmod(M[i][t], M[t][t])
                add_row(i, t, q)
                if r:
                    dirty = True
        for j in range(t + 1, ncols):
            if M[t][j]:
                q, r = poly_divmod(M[t][j], M[t][t])
                add_col(j, t, q)
                if r:
                    dirty = True
        if dirty:
            continue  # a smaller-degree remainder appeared; re-pivot
        # pivot now divides its cleared row and column; enforce divisibility
        # against the rest of the block
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if M[i][j]:
                    _, r = poly_divmod(M[i][j], M[t][t])
                    if r:
                        offender = i
                        break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, ONE)
            continue
        t += 1
    diag = tuple(M[i][i] if i < ncols else ZERO for i in range(min(nrows, ncols)))
    return SmithResult(
        diag,
        tuple(tuple(row) for row in P),
        tuple(tuple(row) for row in Q),
    )


def solve_linear(matrix, rhs) -> list[PolyF2U] | None:
    """One solution v of (matrix) v = rhs over F2[U], or None.

    matrix is a list of rows of PolyF2U; rhs a list of PolyF2U.
    """
    res = smith_reduce(matrix)
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    # transformed right-hand side: P @ rhs
    pb = []
    for i in range(nrows):
        acc = ZERO
        for j in range(nrows):
            acc = acc + res.row_transform[i][j] * rhs[j]
        pb.append(acc)
    w = [ZERO] * ncols
    for i in range(nrows):
        d = res.diagonal[i] if i < len(res.diagonal) else ZERO
        if d:
            q, r = poly_divmod(pb[i], d)
            if r:
                return None
            if i < ncols:
                w[i] = q
        elif pb[i]:
            return None
    # v = Q @ w
    v = []
    for i in range(ncols):
        acc = ZERO
        for j in range(ncols):
            acc = acc + res.col_transform[i][j] * w[j]
        v.append(acc)
    return v


# ---------------------------------------------------------------------------
# winding-number determinant of a grid diagram


def winding_determinant_at_minus_one(g) -> int:
    """|det A(-1)| for the winding matrix A(t)[i][j] = t^(winding at (i,j)).

    Vertical strands run between the two markings of each column inside the
    planar fundamental domain; the winding number at a lattice point sums
    signed crossings of strands strictly to its left.
    """
    n = g.n
    o_row = {g.o_col[r]: r for r in range(n)}
    x_row = {g.x_col[r]: r for r in range(n)}
    strands = []
    for c in range(n):
        ro, rx = o_row[c], x_row[c]
        sign = 1 if ro > rx else -1
        strands.append((c, min(ro, rx), max(ro, rx), sign))
    A = []
    for i in range(n):
        row = []
        for j in range(n):
            w = sum(s for c, lo, hi, s in strands if c < i and lo < j <= hi)
            row.append(Fraction((-1) ** (w % 2)))
        A.append(row)
    # Gaussian elimination over Q
    det = Fraction(1)
    M = [row[:] for row in A]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        inv = 1 / M[k][k]
        for i in range(k + 1, n):
            f = M[i][k] * inv
            if f:
                for j in range(k, n):
                    M[i][j] -= f * M[k][j]
    if det.denominator != 1:
        raise ArithmeticError(f"determinant {det} of an integer matrix")
    return abs(int(det))


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bitmask rows


def f2_rank(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def mod_u_homology_dimension(c) -> int:
    """dim over F2 of the homology after setting U = 0.

    Only weight-0 boundary entries survive; the dimension is
    #generators - 2 rank(d mod U).
    """
    c = materialize(c)[0]
    labels = list(c.basis.labels())
    index = {lab: i for i, lab in enumerate(labels)}
    rows = []
    for src, row in c.boundary.items():
        bits = 0
        for tgt, p in row.items():
            if p.bits & 1:
                bits |= 1 << index[tgt]
        if bits:
            rows.append(bits)
    return len(labels) - 2 * f2_rank(rows)


# ---------------------------------------------------------------------------
# chain condition, generator by generator


def chain_defect(f, key=None):
    """First source generator x (in basis order, or by `key` of the labels)
    where d(f(x)) != f(d(x)), with both sides as {label: PolyF2U}; None for
    a chain map.

    Applies the target boundary to f(x) and f to the source boundary of x,
    for every generator, whatever the shape of the map.
    """
    f = materialize_map(f)
    labels = f.src.basis.labels()
    for x in sorted(labels, key=key) if key else labels:
        lhs: dict = {}
        for mid, p in f.entries.get(x, {}).items():
            for tgt, q in f.tgt.boundary.get(mid, {}).items():
                v = lhs.get(tgt, PolyF2U(0)) + p * q
                if v:
                    lhs[tgt] = v
                else:
                    lhs.pop(tgt, None)
        rhs: dict = {}
        for mid, p in f.src.boundary.get(x, {}).items():
            for tgt, q in f.entries.get(mid, {}).items():
                v = rhs.get(tgt, PolyF2U(0)) + p * q
                if v:
                    rhs[tgt] = v
                else:
                    rhs.pop(tgt, None)
        if lhs != rhs:
            return x, lhs, rhs
    return None


def chain_map(src, tgt, entries: dict):
    """The ChainMap with label-keyed entries {src: {tgt: PolyF2U}}: each term
    U^k of the entry x -> y is bit y of column x in the part of degree
    g(y) - g(x) - 2k."""
    src_at = {lab: j for j, lab in enumerate(src.basis.labels())}
    tgt_at = {lab: i for i, lab in enumerate(tgt.basis.labels())}
    src_g, tgt_g = src.basis.to_dict(), tgt.basis.to_dict()
    parts: dict = {}
    for x, row in entries.items():
        for y, p in row.items():
            for k in p.terms:
                cols = parts.setdefault(tgt_g[y] - 2 * k - src_g[x], [0] * len(src_at))
                cols[src_at[x]] ^= 1 << tgt_at[y]
    return ChainMap(src, tgt, parts)


def add_chain_maps(f, g) -> ChainMap:
    """f + g, refused like `chain_maps_equal` refuses to compare them."""
    _require_alike(f, g, "add")
    return _summed(f.src, f.tgt, [*f.parts.items(), *g.parts.items()], (f if f.parts else g).words)


def complement_band_map(c, site) -> ChainMap:
    """The band map at `site` with U on exactly the generators that the
    package's map leaves alone.  Its target is the package map's; its
    U-placement is read here off the states: U on those holding the
    distinguished point exactly when the site's markings sit on the
    anti-diagonal."""
    tgt = band_map_raw(c, BandMapChoice(site)).tgt
    n = c.grid.n
    col, row = (site.col + 1) % n, (site.row + 1) % n  # the distinguished point
    u_when_contains = site_diagonal(c.grid, site) == "anti"
    src_g, tgt_g = c.basis.to_dict(), tgt.basis.to_dict()
    at = {lab: i for i, lab in enumerate(tgt.basis.labels())}
    parts: dict = {}
    for j, x in enumerate(c.basis.labels()):
        k = (x[col] == row) == u_when_contains
        parts.setdefault(tgt_g[x] - 2 * k - src_g[x], [0] * len(at))[j] = 1 << at[x]
    return ChainMap(c, tgt, parts)


def band_map_sum(c, site) -> ChainMap:
    """The sum of the band map and its complement at one site: pointwise
    (1+U) on generators.  Asserted to be a chain map like the band map; a
    ChainMapViolation carries the first counterexample generator."""
    total = add_chain_maps(band_map_raw(c, BandMapChoice(site)), complement_band_map(c, site))
    _require_band_chain_map(total, site)
    return total


def entry_degree(f):
    """The common doubled-grading shift of f's entries, read entry by
    entry; None for a zero map and for a mixed one."""
    f = materialize_map(f)
    src_g = f.src.basis.to_dict()
    tgt_g = f.tgt.basis.to_dict()
    degs = set()
    for src, row in f.entries.items():
        for tgt, p in row.items():
            if not p:
                continue
            if not p.is_monomial():
                return None
            degs.add(tgt_g[tgt] - 2 * p.degree() - src_g[src])
    return degs.pop() if len(degs) == 1 else None


# ---------------------------------------------------------------------------
# tracked reduction on PolyF2U vectors


def truncated(p: PolyF2U, k: int) -> PolyF2U:
    """p modulo U^k."""
    return PolyF2U(p.bits & ((1 << k) - 1))


def _vec_add(target: dict, source: dict, shift: int) -> None:
    """target += U^shift * source, over {index: PolyF2U}."""
    for i, p in source.items():
        v = target.get(i, PolyF2U(0)) + p.shifted(shift)
        if v:
            target[i] = v
        else:
            target.pop(i, None)


class _Reduction:
    """Cancellation of a homogeneous monomial differential, the pivot
    engine that `homology` ran before the column reduction.

    Repeatedly cancels a pivot entry src -> tgt of globally minimal exponent
    k; the induced update on the survivors is
    D[w][z] += U^{e_w + e_z - k} for every w -> tgt and src -> z.  A pivot
    with k >= 1 leaves a torsion summand F2[U]/(U^k) at the target's grading.
    """

    def __init__(self, D: dict, labels: list):
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.labels = labels
        m = len(labels)
        self.cols: list[dict] = [dict() for _ in range(m)]  # src -> {tgt: k}
        self.rows: list[dict] = [dict() for _ in range(m)]  # tgt -> {src: k}
        self.buckets: dict[int, dict] = {}
        for src, row in D.items():
            si = self.index[src]
            for tgt, k in row.items():
                self._add(si, self.index[tgt], k)
        self.alive = set(range(m))
        self.torsion: list[tuple[int, int]] = []  # (target index, exponent)

    def _add(self, s: int, t: int, k: int) -> None:
        self.cols[s][t] = k
        self.rows[t][s] = k
        self.buckets.setdefault(k, {})[(s, t)] = None

    def _remove(self, s: int, t: int) -> None:
        k = self.cols[s].pop(t)
        del self.rows[t][s]
        del self.buckets[k][(s, t)]
        if not self.buckets[k]:
            del self.buckets[k]

    def _toggle(self, s: int, t: int, k: int) -> None:
        if t in self.cols[s]:
            # homogeneity: a re-created entry must carry the same exponent
            if self.cols[s][t] != k:
                raise NotHomogeneous(
                    f"entry {self.labels[s]}->{self.labels[t]} re-created as U^{k}, "
                    f"not U^{self.cols[s][t]}"
                )
            self._remove(s, t)
        else:
            self._add(s, t, k)

    def _pick_pivot(self) -> tuple[int, int, int]:
        kmin = min(self.buckets)
        best = None
        for (s, t) in itertools.islice(self.buckets[kmin], 48):
            fill = (len(self.rows[t]) - 1) * (len(self.cols[s]) - 1)
            cand = (fill, s, t)
            if best is None or cand < best:
                best = cand
                if fill == 0:
                    break
        _, s, t = best
        return s, t, kmin

    def cancel(self) -> tuple[int, int, int, dict, dict]:
        """Cancel one pivot a -> b of exponent k; returns (a, b, k, in_b,
        out_a), where in_b = {w: e_w} and out_a = {z: e_z} are the other
        entries into b and out of a before the cancellation."""
        a, b, k = self._pick_pivot()
        in_b = {w: e for w, e in self.rows[b].items() if w != a}
        out_a = {z: e for z, e in self.cols[a].items() if z != b}
        for w in list(self.rows[b]):
            self._remove(w, b)
        for z in list(self.cols[a]):
            self._remove(a, z)
        for z in list(self.cols[b]):  # boundary of b dies with the pair
            self._remove(b, z)
        for w in list(self.rows[a]):  # entries into a vanish by d^2 = 0
            self._remove(w, a)
        for w, ew in in_b.items():
            for z, ez in out_a.items():
                self._toggle(w, z, ew + ez - k)
        self.alive.discard(a)
        self.alive.discard(b)
        if k >= 1:
            self.torsion.append((b, k))
        return a, b, k, in_b, out_a


def _exponents(c) -> dict:
    """The boundary of a homogeneous single-variable complex as
    {src: {tgt: k}} for its entries U^k."""
    return {
        src: {tgt: p.degree() for tgt, p in row.items() if p}
        for src, row in c.boundary.items()
    }


def _summary(red: _Reduction, c):
    from gridfloer import GradedModuleSummary

    grading = c.basis.to_dict()
    acc: dict = {}  # grading -> [free rank, torsion exponents]
    for i in red.alive:
        acc.setdefault(grading[red.labels[i]], [0, []])[0] += 1
    for t, k in red.torsion:
        acc.setdefault(grading[red.labels[t]], [0, []])[1].append(k)
    return GradedModuleSummary.from_dict(acc)


def reduction_summary(c):
    """The homology summary of c by pivot cancellation."""
    c = materialize(c)[0]
    red = _Reduction(_exponents(c), list(c.basis.labels()))
    while red.buckets:
        red.cancel()
    return _summary(red, c)


def tracked_presentation(c):
    """The homology presentation of c by pivot cancellation, with
    representatives and projection rows kept as {index: PolyF2U} vectors
    and every change of basis shifted by U^(e - k) explicitly.  Free towers
    come first, then torsion summands in pivot order."""
    c = materialize(c)[0]
    labels = list(c.basis.labels())
    red = _Reduction(_exponents(c), labels)
    one = PolyF2U(1)
    rep = [{i: one} for i in range(len(labels))]
    proj = [{i: one} for i in range(len(labels))]
    torsion = []
    while red.buckets:
        a, b, k, in_b, out_a = red.cancel()
        for z, ez in out_a.items():
            _vec_add(rep[b], rep[z], ez - k)
            _vec_add(proj[z], proj[b], ez - k)
        for w, ew in in_b.items():
            _vec_add(rep[w], rep[a], ew - k)
            _vec_add(proj[a], proj[w], ew - k)
        if k >= 1:
            torsion.append((b, k, dict(rep[b]), dict(proj[b])))
        rep[a], proj[a], rep[b] = {}, {}, {}
        if k < 1:
            proj[b] = {}
    grading = c.basis.to_dict()
    parts = [(i, None, rep[i], proj[i]) for i in sorted(red.alive)] + torsion
    return LabelPresentation(
        _summary(red, c),
        tuple(HomologyGenerator(labels[i], grading[labels[i]], k) for i, k, _, _ in parts),
        tuple({labels[j]: p for j, p in r.items()} for _, _, r, _ in parts),
        tuple({labels[j]: p for j, p in pr.items()} for _, _, _, pr in parts),
    )


# ---------------------------------------------------------------------------
# homology presentations and induced maps as label-keyed vectors


@dataclass(frozen=True)
class LabelPresentation:
    """A homology presentation with each generator's representative and
    projection row as a {label: PolyF2U} vector."""

    summary: object
    generators: tuple
    representatives: tuple[dict, ...]
    rows: tuple[dict, ...]


def implied_vector(bits: int, labels: list, gradings: list, i: int, sign: int) -> dict:
    """The vector {labels[j]: U^e} over the set bits j of `bits`, where
    e = sign * (gradings[j] - gradings[i]) / 2: sign +1 for a representative
    of i, -1 for projection row i.  An odd or negative exponent means the
    gradings do not fit the bitset."""
    out = {}
    digits = bin(bits)[:1:-1]  # digits[j] is bit j
    j = digits.find("1")
    while j >= 0:
        gap = sign * (gradings[j] - gradings[i])
        if gap < 0 or gap & 1:
            raise BrokenInvariant(
                f"basis element {labels[j]} sits at doubled grading {gradings[j]}, "
                f"an odd or negative gap from generator {labels[i]} at {gradings[i]}"
            )
        out[labels[j]] = PolyF2U(1 << (gap >> 1))
        j = digits.find("1", j + 1)
    return out


def label_presentation(pres) -> LabelPresentation:
    """The package's bitset presentation read as label-keyed vectors: each
    generator's base bitsets over the base labels, tensored with its word."""
    c = pres.complex
    labels, gradings = c.basis.labels(), c.basis.gradings()
    position = {lab: i for i, lab in enumerate(labels)}
    at = [position[base_label(gen.label, len(c.tensor_stack))] for gen in pres.generators]

    def vectors(bitsets, sign):
        return tuple(
            {stacked_label(lab, w): p for lab, p in implied_vector(b, labels, gradings, i, sign).items()}
            for b, i, w in zip(bitsets, at, pres.words)
        )

    return LabelPresentation(
        pres.summary, pres.generators, vectors(pres.representatives, 1), vectors(pres.rows, -1)
    )


def apply(entries: dict, vec: dict) -> dict:
    """A column-sparse matrix {src: {tgt: PolyF2U}} applied to a vector."""
    out: dict = {}
    for lab, coeff in vec.items():
        _vec_add(out, {tgt: coeff * p for tgt, p in entries.get(lab, {}).items()}, 0)
    return out


def project(pres: LabelPresentation, vec: dict) -> tuple:
    """Coordinates of a cycle on the homology generators; torsion
    coordinates are reduced modulo U^k."""
    out = []
    for gen, row in zip(pres.generators, pres.rows):
        acc = PolyF2U(0)
        for lab, coeff in vec.items():
            if lab in row:
                acc = acc + coeff * row[lab]
        out.append(acc if gen.torsion_exp is None else truncated(acc, gen.torsion_exp))
    return tuple(out)


def induced_map(f, src: LabelPresentation, tgt: LabelPresentation) -> list[list[PolyF2U]]:
    """Matrix of a chain map f on homology, rows = target generators: each
    representative pushed through f's label-keyed entries and projected."""
    entries = materialize_map(f).entries
    cols = [project(tgt, apply(entries, rep)) for rep in src.representatives]
    return [[col[i] for col in cols] for i in range(len(tgt.generators))]


def back_substituted_rows(basis: list[int], ps) -> list[int]:
    """Rows ps of the inverse of the unitriangular matrix with columns
    `basis`, one row at a time by back-substitution: bit q is the parity of
    the row so far against column q.  A column equal to 1 << q cannot set
    bit q, which is still 0 when q is reached, so only the other columns
    are visited."""
    cols = [(q, col) for q, col in enumerate(basis) if col != 1 << q]
    starts = [q for q, _ in cols]
    rows = []
    for p in ps:
        row = 1 << p
        for q, col in cols[bisect_right(starts, p):]:
            if (row & col).bit_count() & 1:
                row |= 1 << q
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# stacked complexes, copied into the plain complexes they stand for

TAGS = ("plus", "minus")


def label_key(label, depth: int):
    """The order of generators of equal grading, for labels stacked `depth`
    deep: a state is its own key, and a stacked (label, tag) is keyed by
    its base label's key, then by the tag's index in `TAGS`."""
    if not depth:
        return label
    base, tag = label
    return label_key(base, depth - 1), TAGS.index(tag)


def stacked_label(label, word):
    """label tensored with a tag word (a tuple of indices into `TAGS`)."""
    for t in word:
        label = (label, TAGS[t])
    return label


def base_label(label, depth: int):
    for _ in range(depth):
        label = label[0]
    return label


def _moved(col: int, at) -> int:
    """col with each set bit i moved to bit at[i]."""
    bits = 0
    while col:
        i = col.bit_length() - 1
        bits |= 1 << at[i]
        col ^= 1 << i
    return bits


def tensor_rank2(c, stab, depth: int) -> tuple:
    """c, a plain complex whose labels are stacked `depth` deep, tensored
    with the rank-2 free module of a QuasiStab or DiskStab, zero
    differential; the second tag sits the move's gap below the first.
    Sorted by (-grading, `label_key`), the key made once per generator of
    c; each tag's copies get c's columns.  Returns the complex and
    where[t][i], the position of c's i-th generator tensored with tag t."""
    keys = [label_key(lab, depth) for lab in c.basis.labels()]
    order = sorted(  # two runs when c is in key order, which the sort merges
        [
            (shift - d, key, t, i, lab)
            for t, shift in enumerate((0, stab.gap))
            for i, ((lab, d), key) in enumerate(zip(c.basis.elements, keys))
        ]
    )
    where = ([0] * len(c.basis), [0] * len(c.basis))  # [t][i]: where c's i-th, tag t, goes
    for q, (_, _, t, i, _) in enumerate(order):
        where[t][i] = q
    cols = [0] * len(order)
    for w in where:
        for q, col in zip(w, _columns(c)):
            cols[q] = _moved(col, w)
    basis = GradedBasis(tuple([((lab, TAGS[t]), -d) for d, _, t, _, lab in order]))
    return MonomialComplex(basis, c.marking_count + 2, c.grid, columns=cols), where


_MATERIALIZED: dict = {}  # (grid, basis, stack) -> (columns, plain complex, at)


def materialize(c) -> tuple:
    """The plain complex that c, a base complex and its stack, stands for,
    and at[w][i], the position there of base element i tensored with the
    word w.  A complex with no stack is its own.  A stack on a grid is
    copied once per grid, basis and stack."""
    if not c.tensor_stack:
        return c, {(): range(len(c.basis))}
    key = (c.grid, c.basis, c.tensor_stack)
    made = _MATERIALIZED.get(key)
    if made is None or c.grid is None and made[0] is not c.columns:
        count = c.marking_count - 2 * len(c.tensor_stack)
        plain = MonomialComplex(c.basis, count, c.grid, columns=c.columns)
        at = {(): range(len(c.basis))}
        for depth, stab in enumerate(c.tensor_stack):
            plain, where = tensor_rank2(plain, stab, depth)
            at = {w + (t,): [where[t][q] for q in qs] for w, qs in at.items() for t in (0, 1)}
        if len(_MATERIALIZED) > 64:
            _MATERIALIZED.clear()
        made = _MATERIALIZED[key] = (c.columns, plain, at)
    return made[1:]


def materialize_map(f) -> ChainMap:
    """f, a base map tensored with a word map, as a map of the plain
    complexes its ends stand for."""
    if not (f.src.tensor_stack or f.tgt.tensor_stack):
        return f
    (src, at_src), (tgt, at_tgt) = materialize(f.src), materialize(f.tgt)
    parts = {}
    for degree, cols in f.parts.items():
        new = parts[degree] = [0] * len(src.basis)
        for w, v in f.words.items():
            for j, col in enumerate(cols):
                new[at_src[w][j]] = _moved(col, at_tgt[v])
    return ChainMap(src, tgt, parts)


def entries(f) -> dict:
    """The label-keyed entries of f, over stacked labels on a stack."""
    return materialize_map(f).entries


# ---------------------------------------------------------------------------
# multivariable monomials as exponent vectors


@dataclass(frozen=True, slots=True)
class ExponentVector:
    """A monomial over the marking variables, as sorted (index, exponent)
    pairs with positive exponents; absent indices mean exponent 0.  Unlike
    the package's codes it holds any exponent, and the identified variable
    `COMMON_VARIABLE` of a specialization."""

    exps: tuple[tuple[int, int], ...] = ()

    @classmethod
    def make(cls, mapping) -> "ExponentVector":
        items = mapping.items() if hasattr(mapping, "items") else mapping
        acc: dict[int, int] = {}
        for i, e in items:
            if e < 0:
                raise ValueError(f"negative exponent {e} for variable {i}")
            if e:
                acc[i] = acc.get(i, 0) + e
        return cls(tuple(sorted(acc.items())))

    def get(self, i: int) -> int:
        for j, e in self.exps:
            if j == i:
                return e
        return 0

    def total(self) -> int:
        return sum(e for _, e in self.exps)

    def __mul__(self, other: "ExponentVector") -> "ExponentVector":
        acc = dict(self.exps)
        for i, e in other.exps:
            acc[i] = acc.get(i, 0) + e
        return ExponentVector(tuple(sorted(acc.items())))

    def variables(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.exps)


def code(ev: ExponentVector) -> int:
    """The package's form of a monomial: the exponent e of variable i as
    e 4^i.  A variable below 0 or an exponent above 3 has no code."""
    if any(i < 0 or e > 3 for i, e in ev.exps):
        raise ValueError(f"{ev} has no two-bit code")
    return sum(e * 4**i for i, e in ev.exps)


def vector(c: int) -> ExponentVector:
    """The monomial of a code: its base-4 digits, digit i the exponent of
    variable i."""
    exps, i = [], 0
    while c:
        c, e = divmod(c, 4)
        exps.append((i, e))
        i += 1
    return ExponentVector.make(exps)


def coded(rows: dict) -> dict:
    """Label-keyed rows {src: {tgt: frozenset of ExponentVector}} in the
    package's form, each monomial as its `code`."""
    return {x: {y: frozenset(map(code, evs)) for y, evs in row.items()} for x, row in rows.items()}


def _vector_rows(c) -> dict:
    """The boundary of a multivariable complex as rows of frozensets of
    ExponentVector: a `MultiComplex`'s own, a built one's codes read by
    `vector`."""
    if isinstance(c, MultiComplex):
        return c.boundary
    return {x: {y: frozenset(map(vector, cs)) for y, cs in row.items()} for x, row in c.boundary.items()}


# ---------------------------------------------------------------------------
# the reference rectangle walk, one candidate pair at a time


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


def marking_position(g, marking: int) -> tuple[int, int]:
    """(column, row) of a marking id."""
    if 0 <= marking < g.n:
        return (g.o_col[marking], marking)
    if g.n <= marking < 2 * g.n:
        r = marking - g.n
        return (g.x_col[r], r)
    raise ValueError(f"marking id {marking} out of range for n={g.n}")


# ---------------------------------------------------------------------------
# hand-built complexes


def _row_columns(basis, rows: dict) -> list[int]:
    """Label-keyed rows {src: {tgt: PolyF2U}} as the bitset columns of
    `MonomialComplex.columns`: every nonzero entry must be a monomial U^k
    with 2d(src) - 2d(tgt) = 2 - 2k, so columns and gradings determine the
    rows."""
    gradings = basis.gradings()
    position = {lab: i for i, lab in enumerate(basis.labels())}
    cols = []
    for lab, g in basis.elements:
        col = 0
        for tgt_lab, p in rows.get(lab, {}).items():
            if not p:
                continue
            if not p.is_monomial():
                raise NonHomogeneousEntry(f"entry {lab}->{tgt_lab} = {p} is not a monomial")
            k, i = p.degree(), position[tgt_lab]
            if gradings[i] - 2 * k - g != -2:
                raise NotHomogeneous(
                    f"entry {lab}->{tgt_lab} = U^{k} breaks grading: "
                    f"{g} - {gradings[i]} != {2 - 2 * k}"
                )
            col |= 1 << i
        cols.append(col)
    return cols


def complex_from_rows(basis, rows: dict, marking_count: int, grid=None) -> MonomialComplex:
    """The single-variable complex with label-keyed rows {src: {tgt:
    PolyF2U}}; an entry that is not a monomial raises NonHomogeneousEntry,
    and one off its grading gap NotHomogeneous."""
    return MonomialComplex(basis, marking_count, grid, columns=_row_columns(basis, rows))


def is_homogeneous(basis, rows: dict) -> bool:
    """True iff every entry of the label-keyed rows is a monomial matching
    the grading gap."""
    try:
        _row_columns(basis, rows)
    except (NonHomogeneousEntry, NotHomogeneous):
        return False
    return True


@dataclass(frozen=True)
class MultiComplex:
    """A hand-built multivariable complex: label-keyed rows {src: {tgt:
    frozenset of ExponentVector}}, read as a built one's `boundary` is
    read through `vector`."""

    basis: GradedBasis
    boundary: dict
    marking_count: int


# ---------------------------------------------------------------------------
# specialization of a multivariable complex: the builder oracle

COMMON_VARIABLE = -1  # index of the identified variable after specialization


def collapse(ev, keep: tuple[int, ...]):
    """Send every variable outside `keep` to the common identified one."""
    acc: dict[int, int] = {}
    for i, e in ev.exps:
        j = i if i in keep else COMMON_VARIABLE
        acc[j] = acc.get(j, 0) + e
    return ExponentVector(tuple(sorted(acc.items())))


def specialize(c, policy):
    """Quotient the coefficient ring of a multivariable complex, built or a
    `MultiComplex`.

    policy "all": identify every marking variable with U; entries become
    single-variable (each a monomial or zero by F2 cancellation), and the
    result is a single-variable complex, which a single-variable c already
    is.
    policy (i, j): keep markings i and j distinct, identify the rest; the
    result is a `MultiComplex`.
    """
    single = isinstance(c, MonomialComplex) and c.masks is None
    if policy == "all":
        if single:
            return c
        new_boundary: dict = {}
        for src, row in _vector_rows(c).items():
            new_row = {}
            for tgt, evs in row.items():
                p = ZERO
                for ev in evs:
                    p = p + u_power(ev.total())
                if p:
                    new_row[tgt] = p
            if new_row:
                new_boundary[src] = new_row
        return complex_from_rows(c.basis, new_boundary, c.marking_count)
    if (
        isinstance(policy, tuple)
        and len(policy) == 2
        and all(isinstance(i, int) for i in policy)
    ):
        i, j = policy
        if i == j or not (0 <= i < c.marking_count and 0 <= j < c.marking_count):
            raise ValueError(f"markings {policy} invalid for marking_count={c.marking_count}")
        if single:
            raise ValueError("keep-two specialization needs a multivariable complex")
        keep = (i, j)
        new_boundary = {}
        for src, row in _vector_rows(c).items():
            new_row = {}
            for tgt, evs in row.items():
                acc: set = set()
                for ev in evs:
                    acc ^= {collapse(ev, keep)}  # F2: a monomial met twice cancels
                if acc:
                    new_row[tgt] = frozenset(acc)
            if new_row:
                new_boundary[src] = new_row
        return MultiComplex(c.basis, new_boundary, c.marking_count)
    raise ValueError(f"unrecognized policy {policy!r}")


# ---------------------------------------------------------------------------
# the boundary and the grading, pair by pair


def rectangle_boundary(g) -> dict:
    """The multivariable boundary of g, column-sparse, from the reference
    rectangle walk: for every state x and every column pair c1 < c2 in
    lexicographic order, the empty rectangles from `rectangles(g, x, y)`
    to the state y with columns c1 and c2 swapped, their exponent vectors
    cancelled over F2.  Each emptiness test is O(n), so a state costs
    O(n^3)."""
    n = g.n
    boundary = {}
    for x in itertools.permutations(range(n)):
        row = {}
        for c1, c2 in itertools.combinations(range(n), 2):
            y = list(x)
            y[c1], y[c2] = y[c2], y[c1]
            y = tuple(y)
            acc = set()
            for rect in rectangles(g, x, y):
                acc.symmetric_difference_update({rect.weight})
            if acc:
                row[y] = frozenset(acc)
        if row:
            boundary[x] = row
    return boundary


def marking_prefix(g) -> list[list[int]]:
    """2n x 2n prefix sums over the doubled torus in which each marking
    contributes its own bit: O in row r is bit r, X in row r is bit n + r
    (the variable indices of a monomial).  A rectangle narrower and
    shorter than n covers each marking at most once, so inclusion-exclusion
    on it gives exactly the mask of the markings it covers: the package's
    masks before it read them off line masks."""
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


def _sorted_walk(n, pref, label, x):
    """The empty rectangles out of x as (target, mask), in the order of the
    column pairs c1 < c2, the c1 -> c2 rectangle first, with each target
    looked up by hashing the swapped tuple in `label`: the walk that
    `label_row_gc_prime` reads."""
    found = []
    xx = x + x
    for a in range(n):
        s = x[a]
        ceiling = n
        for b in range(a + 1, a + n):
            h = (xx[b] - s) % n
            if h < ceiling:
                ceiling = h
                c = b % n
                y = list(x)
                y[a], y[c] = y[c], s
                t = s + h
                mask = pref[b][t] - pref[a][t] - pref[b][s] + pref[a][s]
                found.append((a * n + c if a < c else c * n + a, label[tuple(y)], mask))
                if h == 1:
                    break
    found.sort(key=lambda e: e[0])  # stable: c1 -> c2 is found first
    return [(y, mask) for _, y, mask in found]


def label_row_gc_prime(g):
    """The single-variable complex of g as label-keyed PolyF2U rows, each
    made in one pass over `_sorted_walk`: the builder that the
    grading-ordered columns replaced.  `complex_from_rows` turns its rows
    into columns and checks homogeneity on the way."""
    from gridfloer.complexes import _graded_basis, enumerate_states

    n = g.n
    states = enumerate_states(n, n)
    pref = marking_prefix(g)
    label = {x: x for x in states}
    powers = [u_power(k) for k in range(2 * n + 1)]
    boundary = {}
    for x in states:
        row = {}
        for y, mask in _sorted_walk(n, pref, label, x):
            p = powers[mask.bit_count()]
            first = row.pop(y, None)
            if first is None:
                row[y] = p
            elif first != p:
                weights = sorted((first.degree(), p.degree()))
                raise NotHomogeneous(
                    f"surviving rectangles {x} -> {y} have mixed weights {weights}"
                )
        if row:
            boundary[x] = row
    return complex_from_rows(_graded_basis(g, states)[1], boundary, 2 * n, g)


def per_entry_gc_prime(g):
    """The single-variable complex of g from the package's rectangle
    pattern, each entry checked against the gradings one at a time: the
    check that the class-by-class one replaced.  It raises the builder's
    `NotHomogeneous` messages: a twin of mixed weights, checked over all
    twins first, then the first entry, in basis order, that breaks the
    gradings."""
    from gridfloer import complexes

    states = complexes.enumerate_states(g.n, g.n)
    grading, basis = complexes._graded_basis(g, states)
    order = sorted(range(len(states)), key=grading.__getitem__, reverse=True)  # stable
    position = sorted(range(len(states)), key=order.__getitem__)
    corners, offsets, targets, classes, twins = complexes._rectangle_pattern(g.n)
    weight = [mask.bit_count() for mask in complexes._class_masks(g, corners)]
    for x, y, k, other in zip(*[iter(twins)] * 4):  # U^k + U^k cancels
        if weight[k] != weight[other]:
            weights = sorted((weight[k], weight[other]))
            raise NotHomogeneous(
                f"surviving rectangles {states[x]} -> {states[y]} have mixed weights {weights}"
            )
    cols = []
    for j in order:
        col, lo, hi = 0, offsets[j], offsets[j + 1]
        for t, k in zip(targets[lo:hi], map(weight.__getitem__, classes[lo:hi])):
            if grading[j] - grading[t] != 2 - 2 * k:
                raise NotHomogeneous(
                    f"entry {states[j]}->{states[t]} = U^{k} breaks grading: "
                    f"{grading[j]} - {grading[t]} != {2 - 2 * k}"
                )
            col |= 1 << position[t]
        cols.append(col)
    return MonomialComplex(basis, 2 * g.n, g, columns=cols)


def _class_gaps(n: int, pattern: tuple) -> tuple[array, array, array]:
    """(in use, gaps, twin classes) of `pattern`, a rectangle pattern of
    size n, read off its entries: the classes with an entry, gaps[i] =
    2 I(x, x) - 2 I(y, y) for the entries x -> y of class in_use[i], one
    number over the class, which this checks on every entry, and the class
    pairs (k, other) of the twins, flat.  The pass over the pattern that
    `complexes._gaps_in_use`'s closed form replaced."""
    from gridfloer.complexes import _pair_counts

    _, offsets, targets, classes, twins = pattern
    two_i = bytes(_pair_counts(n).values())  # by state, in the pattern's order; each below n^2
    sources = itertools.chain.from_iterable(
        itertools.repeat(two_i[x], hi - lo) for x, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
    )
    seen = {(k, d - two_i[y]) for k, d, y in zip(classes, sources, targets)}
    gaps = dict(seen)
    if len(gaps) != len(seen):
        k = next(k for k, count in Counter(k for k, _ in seen).items() if count > 1)
        varied = sorted(d for c, d in seen if c == k)
        raise BrokenInvariant(f"class {k} of the size-{n} rectangle pattern has gaps {varied}")
    twin_classes = itertools.chain.from_iterable(set(zip(twins[2::4], twins[3::4])))
    return array("H", gaps), array("h", gaps.values()), array("H", twin_classes)


def _open_quadrant_pairs(P, Q) -> int:
    """Pairs (p, q) with q strictly up and to the right of p."""
    return sum(1 for pc, pr in P for qc, qr in Q if qc > pc and qr > pr)


def delta_grading_pairs(g, state) -> int:
    """Doubled delta grading J(x-O, x-O) + J(x-X, x-X) + (n - l) + 2 from
    the four-term expansion of J, every term an explicit pair count over
    doubled coordinates (lattice points even, markings odd)."""
    n = g.n
    S = [(2 * c, 2 * state[c]) for c in range(n)]
    Os = [(2 * g.o_col[r] + 1, 2 * r + 1) for r in range(n)]
    Xs = [(2 * g.x_col[r] + 1, 2 * r + 1) for r in range(n)]

    def J(P, Q):
        return (
            _open_quadrant_pairs(P, P) - _open_quadrant_pairs(P, Q)
            - _open_quadrant_pairs(Q, P) + _open_quadrant_pairs(Q, Q)
        )

    l = link_topology(g).component_count
    return J(S, Os) + J(S, Xs) + (n - l) + 2


# ---------------------------------------------------------------------------
# the squared multivariable boundary, monomial by monomial


def boundary_squared_multi(c) -> dict:
    """d o d of a multivariable complex, column-sparse: every two-step path
    contributes the product of its exponent vectors, cancelled over F2.  A
    built complex's codes are read by `vector`, and the square is returned
    as exponent vectors, which `coded` turns into the package's form."""
    rows, out = _vector_rows(c), {}
    for src, row in rows.items():
        acc = {}
        for mid, evs1 in row.items():
            for tgt, evs2 in rows.get(mid, {}).items():
                bucket = acc.setdefault(tgt, set())
                for ev1 in evs1:
                    for ev2 in evs2:
                        bucket.symmetric_difference_update({ev1 * ev2})
        cleaned = {tgt: frozenset(s) for tgt, s in acc.items() if s}
        if cleaned:
            out[src] = cleaned
    return out
