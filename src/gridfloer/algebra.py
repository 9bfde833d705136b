"""Graded homological algebra over F2[U] and F2[U_1..U_2n].

Polynomials over F2 are bitmask-backed (bit k = coefficient of U^k).
Complexes carry doubled integer gradings so that half-integer gradings of
multi-component links stay exact.  A complex stores one form.  A
single-variable complex is its bitset columns: homogeneity forces every
entry to be a monomial whose exponent matches the grading gap, so the
columns and the gradings fix the boundary.  A built one
(`complexes.build_gc_prime`) is its pattern order instead, the rectangle
pattern of its size read through its grid's state order, and makes its
columns only when they are read.  A multivariable complex, one
variable per marking, is the masks of its grid's classes of rectangles
(`complexes.build_complex`).  Any one's label-keyed `boundary` is made
when first read: an entry is a PolyF2U, or a frozenset of multivariable
monomials.  A multivariable monomial is an int code with two bits per
variable, bits 2i and 2i + 1 holding the exponent of variable i
(`complexes._code` makes it from a mask), so the product of two monomials
whose exponents add to at most 3 is the sum of their codes.

Every complex lists its generators in one order: its `GradedBasis`,
sorted by doubled grading, highest first, with equal gradings kept in the
order they were given.  Bitset columns, presentations and chain-map
columns all index that order.  Homology of a single-variable complex is a
column reduction over int bitsets (`_reduce`): homogeneity implies every
coefficient from the gradings, so the reduction is F2 work on the
boundary's pattern.  It certifies d^2 = 0 after reducing, once per size
on built complexes, with one product per nonzero reduced column;
`boundary_squares_to_zero` is the direct check, one product per column.
A built complex of a certified size is reduced from its pattern order,
each column made as the reduction reaches it, so the columns that
clearing skips, about half, are never made.

A chain map is likewise its homogeneous parts (`ChainMap.parts`): for
each degree it has, one bitset column per source generator, with
label-keyed `entries` made when first read.  A homology presentation keeps
each generator's representative and projection row as the bitsets
`_reduce` and `_inverse_rows` produce.  Within a part the gradings fix
every exponent, and parts of different degrees never meet at one
exponent, so the chain-map check (`chain_defect`), sums, compositions,
equality and the matrix a map induces on homology (`induced_map`) are F2
work on the parts' columns.  The check does no product at all, and
makes no column, for a map of one part that keeps every state between
two complexes built from the rectangle pattern, such as a band map or
a closed movie's composite: both boundaries are the pattern's, in two
orders of one set of states, so the map commutes with them.

A stabilized complex is its base plus its `tensor_stack`, one rank-2 free
module with zero differential per move: its generators are x (x) w for x
in the base and w a tag word (`_words`).  A map of such complexes is a
base map f tensored with a word map W, from source words to target words.
f (x) W is a chain map exactly when f is (or W is empty), as d(f (x) W) -
(f (x) W)d = (df - fd) (x) W, and x (x) w -> y (x) W(w) has the U-exponent
of x -> y, since the word shifts move both gradings and the degree alike.
So all the work is on base-size columns, and the homology of a stack is
the base homology once per word.

The square of a multivariable boundary (`boundary_squared`) is a grouped
parity count: the two-step paths of the rectangle pattern of its size are
grouped by their ends, once per size, a path's monomial is the sum of its
two classes' codes, identical groups are counted once, and the codes
counted an odd number of times in a group are its terms.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .errors import (
    BrokenInvariant,
    NotAComplex,
    NotChainMap,
    NotHomogeneous,
)

# ---------------------------------------------------------------------------
# polynomials over F2


@dataclass(frozen=True, slots=True)
class PolyF2U:
    """An element of F2[U]; bit k of `bits` is the coefficient of U^k."""

    bits: int = 0

    @classmethod
    def from_terms(cls, terms) -> "PolyF2U":
        b = 0
        for k in terms:
            if k < 0:
                raise ValueError(f"negative exponent {k}")
            b ^= 1 << k
        return cls(b)

    @property
    def terms(self) -> frozenset[int]:
        return frozenset(k for k in range(self.bits.bit_length()) if self.bits >> k & 1)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __add__(self, other: "PolyF2U") -> "PolyF2U":
        return PolyF2U(self.bits ^ other.bits)

    def __mul__(self, other: "PolyF2U") -> "PolyF2U":
        a, b, acc = self.bits, other.bits, 0
        while a:
            low = a & -a
            acc ^= b << low.bit_length() - 1
            a ^= low
        return PolyF2U(acc)

    def shifted(self, k: int) -> "PolyF2U":
        """Multiply by U^k."""
        if k < 0:
            raise ValueError(f"negative shift {k}")
        return PolyF2U(self.bits << k)

    def is_monomial(self) -> bool:
        return self.bits != 0 and self.bits & (self.bits - 1) == 0

    def degree(self) -> int:
        """Degree in U; -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    def __repr__(self) -> str:
        if not self.bits:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            parts.append("1" if k == 0 else ("U" if k == 1 else f"U^{k}"))
        return " + ".join(parts)


ZERO = PolyF2U(0)
ONE = PolyF2U(1)
U = PolyF2U(2)


def u_power(k: int) -> PolyF2U:
    if k < 0:
        raise ValueError(f"negative exponent {k}")
    return PolyF2U(1 << k)


# ---------------------------------------------------------------------------
# graded bases and complexes

_TAGS = ("plus", "minus")  # a tag word holds one index into _TAGS per stack move


@functools.cache
def _words(stack: tuple) -> dict[tuple[int, ...], int]:
    """The tag words of a stack in order, each with the doubled grading it
    lowers a base generator by: the `gap`s of the moves tagged minus."""
    words = {(): 0}
    for stab in stack:
        words = {w + (t,): s + t * stab.gap for w, s in words.items() for t in (0, 1)}
    return words


def _stacked_label(label, word: tuple[int, ...]):
    """The label of label (x) word: (label, tag), nested once per move."""
    for t in word:
        label = (label, _TAGS[t])
    return label


@dataclass(frozen=True)
class GradedBasis:
    """Basis labels with doubled gradings; labels are unique.  The elements
    are kept sorted by grading, highest first; the sort is stable, so
    elements of equal grading keep the order they were given in."""

    elements: tuple[tuple[object, int], ...]
    _labels: tuple = field(init=False, compare=False, repr=False)
    _gradings: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        elements = tuple(sorted(self.elements, key=itemgetter(1), reverse=True))  # stable
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_labels", tuple([lab for lab, _ in elements]))
        object.__setattr__(self, "_gradings", tuple([g for _, g in elements]))
        if len(set(self._labels)) != len(elements):
            raise ValueError("duplicate labels in graded basis")

    def labels(self) -> tuple:
        return self._labels

    def gradings(self) -> tuple[int, ...]:
        return self._gradings

    def to_dict(self) -> dict:
        return dict(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


class MonomialComplex:
    """A free graded complex, given as exactly one of three forms:
    `columns`, one int per basis element whose bit i is set when the i-th
    basis element is a target, the entry being the monomial U^k that the
    gradings fix (single-variable); `order`, the rectangle pattern of its
    size read through its grid's state order (`complexes.PatternOrder`,
    single-variable, from `complexes.build_gc_prime`); or `masks`, the
    markings each class of rectangle covers on `grid`
    (`complexes._class_masks`, multivariable).  A complex of an `order`
    has no columns until they are read: the first read of `columns` makes
    them, one `complexes._column_maker` call per column, and they are kept.
    `boundary` is the label-keyed view, column-sparse: boundary[src][tgt]
    is a PolyF2U, or a frozenset of monomial codes.
    With a `tensor_stack`, `basis`, `boundary` and `columns` are the base's,
    and x (x) w sits at g(x) minus the shift of the word w.  A restacked
    copy holds the complex it was made from in `base`, so the built base
    stays alive (and reusable) as long as any stack of it is, and its
    columns are made on, and kept by, that base.
    Instances are treated as immutable after construction.
    """

    def __init__(
        self,
        basis: GradedBasis,
        marking_count: int,
        grid=None,                # originating GridDiagram, when applicable
        tensor_stack: tuple = (),  # stabilization moves, newest last
        columns: list[int] | None = None,
        base: MonomialComplex | None = None,
        masks: list[int] | None = None,
        order=None,
    ):
        if (columns is None) + (order is None) + (masks is None) != 2:
            raise BrokenInvariant(
                "a complex is stored as exactly one of its columns, its pattern order and its masks"
            )
        self.basis, self.marking_count, self.grid = basis, marking_count, grid
        self.tensor_stack, self.base, self.masks, self.order = tensor_stack, base, masks, order
        if columns is not None:
            self.columns = columns

    @cached_property
    def columns(self) -> list[int] | None:
        """Given, or made from `order` when first read, on the base of a
        stack; None on a multivariable complex."""
        if self.order is None:
            return None
        if self.base is not None:
            return self.base.columns
        from .complexes import _column_maker

        return list(map(_column_maker(self.order), range(len(self.basis))))

    @cached_property
    def boundary(self) -> dict:
        """Made when first read, then kept: from `columns`, where bit i of
        column j is the entry U^((2 - g_j + g_i) / 2), or from `masks`
        (`complexes._mask_boundary`)."""
        if self.masks is None:
            return _label_rows(self.basis, self.basis, -2, self.columns)
        from .complexes import _mask_boundary

        return _mask_boundary(self)

    def entries(self):
        for src, row in self.boundary.items():
            for tgt, val in row.items():
                yield src, tgt, val


@dataclass(frozen=True)
class GradedModuleSummary:
    """Per doubled-grading free ranks and U-torsion exponents, grading
    descending; rows with no content are dropped."""

    rows: tuple[tuple[int, int, tuple[int, ...]], ...]

    @classmethod
    def from_dict(cls, d: dict) -> "GradedModuleSummary":
        rows = []
        for g in sorted(d, reverse=True):
            free, torsion = d[g]
            torsion = tuple(sorted(torsion))
            if any(k < 1 for k in torsion) or free < 0:
                raise ValueError(f"bad summary row at grading {g}")
            if free or torsion:
                rows.append((g, free, torsion))
        return cls(tuple(rows))

    def to_dict(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        return {g: (f, t) for g, f, t in self.rows}

    def to_json_rows(self) -> list[dict]:
        return [
            {"grading_doubled": g, "free_rank": f, "torsion": list(t)}
            for g, f, t in self.rows
        ]

    def lowered(self, shifts) -> "GradedModuleSummary":
        """The sum of copies of self, one lowered by each of shifts."""
        acc: dict[int, list] = {}
        for s in shifts:
            for g, f, t in self.rows:
                row = acc.setdefault(g - s, [0, []])
                row[0] += f
                row[1] += t
        return GradedModuleSummary.from_dict(acc)

    def total_free(self) -> int:
        return sum(f for _, f, _ in self.rows)

    def torsion_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(k for _, _, t in self.rows for k in t))


# ---------------------------------------------------------------------------
# curvature


def boundary_squared(c: MonomialComplex) -> dict:
    """The composition of the boundary with itself, column-sparse.

    On a multivariable complex, which carries the masks of its classes of
    rectangles, this is one parity count over the two-step paths of the
    rectangle pattern of its size, grouped by their ends
    (`complexes._grouped_square`, the groups made once per size by
    `complexes._path_groups`).  Each term of the boundary is the code of its
    class's mask.  A rectangle covers a marking at most once, so a path's
    exponents are at most 2, and the monomial of a path x -> y -> z, the
    product of its two terms, is the sum of their codes with no carry
    between the 2-bit fields.  In the group of (x, z), a code counted an
    odd number of times is a term of d^2 at (x, z).  A group's values are
    fixed by its pairs of classes, so identical groups are counted once.
    A twin is two terms; when its two masks are equal, its paths pair up
    with equal values and cancel in the count, as the boundary drops the
    entry.  A single-variable complex is checked by
    `boundary_squares_to_zero` instead.
    """
    if c.masks is None:
        raise NotHomogeneous("complex is single-variable; boundary_squared needs multivariable")
    from .complexes import _grouped_square

    return _grouped_square(c)


# ---------------------------------------------------------------------------
# single-variable complexes: checks and reduction


def _columns(c: MonomialComplex) -> list[int]:
    """The boundary of c as int bitset columns: bit i of column j is set
    when basis element i is a target of j.  Every entry is the monomial U^k
    with 2d(src) - 2d(tgt) = 2 - 2k, which the build checks, so columns and
    gradings determine the boundary.  A built complex makes them here, on
    the first read (`MonomialComplex.columns`)."""
    if c.columns is None:
        raise NotHomogeneous("complex is not single-variable")
    return c.columns


def _apply_bits(cols: list[int], col: int) -> int:
    """A bitset matrix applied to a column over F2: the XOR of cols[i] over
    the set bits i of col."""
    acc = 0
    while col:
        i = col.bit_length() - 1
        acc ^= cols[i]
        col ^= 1 << i
    return acc


def _check_squares_to_zero(basis: GradedBasis, cols: list[int]) -> None:
    # parity of two-step path counts; homogeneity pins the exponents
    for j, col in enumerate(cols):
        acc = _apply_bits(cols, col)
        if acc:
            (src, _), (tgt, _) = basis.elements[j], basis.elements[acc.bit_length() - 1]
            raise NotAComplex(f"boundary squared has an odd path count {src} -> {tgt}")


def boundary_squares_to_zero(c: MonomialComplex) -> bool:
    """Direct exact check of d^2 = 0 for a homogeneous single-variable
    complex, one product per column.

    Homogeneity pins the exponent of every two-step path between fixed
    endpoints, so d^2 = 0 reduces to path-count parity.  `_reduce` makes
    the same check on its nonzero reduced columns, once per built size.
    """
    try:
        _check_squares_to_zero(c.basis, _columns(c))
    except NotAComplex:
        return False
    return True


def _reduce(c: MonomialComplex):
    """Column reduction of the boundary in grading order, with clearing.

    Columns are indexed by the basis, sorted by doubled grading g, highest
    first (`_columns`).  The low of a column is its last set index: the
    lowest-graded target, whose entry carries the least power of U.  Columns
    are reduced left to right; while column j shares its low with an
    earlier column i, column i is added into column j, and the same XOR is
    applied to the change of basis V.  Since g(i) >= g(j), the addition is
    x_j += U^((g(i) - g(j))/2) x_i, homogeneous with every exponent implied
    by the gradings, so the whole reduction is F2 work on bit patterns
    (Zomorodian-Carlsson, Computing persistent homology, 2005).  A column
    is skipped once its index is known to be a low (clearing: Chen-Kerber,
    Persistent homology computation with a twist, 2011).

    Exactness over F2[U]: every reduced column satisfies R_j = D V_j with
    V_j = e_j plus earlier columns, also when j becomes a low only after
    it was reduced.  Take B = {V_j : j not a low} and {R_j : R_j != 0}.
    Each element has its own leading index (j for V_j, low(R_j) for R_j),
    and every index is a non-low or the low of exactly one column, so B is
    a basis, unitriangular against the standard one and so homogeneous.
    D sends each V_j in B to R_j or to 0, so d^2 = 0 exactly when
    D R_j = 0 for every nonzero R_j; that is checked after the reduction,
    on the reduced columns alone, and a failure is named by the direct
    check (`_check_squares_to_zero`).  With d^2 = 0, write y_t = R_j / U^k
    for the pair t = low(R_j), k = (g(t) - g(j) + 2)/2: y_t has coefficient
    1 at t and entries only at earlier indices, d(V_j) = U^k y_t and
    d(y_t) = 0.  So a pair with k = 0 cancels, a pair with k >= 1 is a
    summand F2[U]/(U^k) at g(t), and every other non-low index is a free
    tower.  Clearing loses nothing: a low t's own column would reduce to
    zero, as d(V_t) lies in the span of the earlier reduced columns, which
    have distinct lows.  The argument uses only homogeneity, checked in
    the build, and d^2 = 0.  A complex built from the rectangle pattern
    (`complexes._on_pattern`) is D = S P S^-1, P the pattern less its twins
    (see `chain_defect`), exponents fixed by the gradings, so D^2 = 0 iff
    P^2 = 0: once one passes, the pattern is recorded (`complexes._SQUARE_FREE`),
    and later builds from it, not copies of their columns, skip the check.

    A complex that skips the check, and whose columns no earlier read has
    made, is reduced from its pattern order: each column is made
    (`complexes._column_maker`) when the reduction reaches it, and none is
    kept.  A cleared column is never made; the argument above is
    unchanged, as it never reads one.  A complex that runs the check has
    all its columns read first (`_columns`), once, as the check applies D
    to the reduced columns.

    Returns the free indices j, the torsion summands as (k, t) sorted by k,
    and that basis as bitset columns: V e_j at a non-low j, the pattern of
    y_t at a low t.  The columns of c are not changed.
    """
    from .complexes import _SQUARE_FREE, _column_maker, _on_pattern

    pattern = _on_pattern(c) and c.order.pattern
    certify = not pattern or _SQUARE_FREE.get(c.grid.n) is not pattern
    if certify or "columns" in vars(c.base or c):  # given, or made by an earlier read
        D = _columns(c)
        column = D.__getitem__
    else:
        column = _column_maker(c.order)
    gradings = c.basis.gradings()
    R, V = [0] * len(gradings), [0] * len(gradings)
    column_of_low: dict[int, int] = {}
    for j in range(len(R)):
        if j in column_of_low:
            continue
        r, v = column(j), 1 << j
        while r:
            t = r.bit_length() - 1
            i = column_of_low.get(t)
            if i is None:
                column_of_low[t] = j
                break
            r ^= R[i]
            v ^= V[i]
        R[j], V[j] = r, v
    if certify:
        if any(_apply_bits(D, r) for r in R if r):
            _check_squares_to_zero(c.basis, D)
            raise BrokenInvariant("a reduced column is not a cycle, yet d^2 = 0 column by column")
        if pattern:
            _SQUARE_FREE[c.grid.n] = pattern
    free = [j for j, r in enumerate(R) if not r and j not in column_of_low]
    torsion = []
    for t, j in column_of_low.items():
        k = (gradings[t] - gradings[j] + 2) // 2
        if k:
            torsion.append((k, t))
        V[t] = R[j]
    torsion.sort()
    return free, torsion, V


def _summary(c: MonomialComplex, free: list, torsion: list) -> GradedModuleSummary:
    """The homology of c's base, lowered once per word of c's stack."""
    gradings, acc = c.basis.gradings(), {}  # grading -> [free rank, torsion exponents]
    for j in free:
        acc.setdefault(gradings[j], [0, []])[0] += 1
    for k, t in torsion:
        acc.setdefault(gradings[t], [0, []])[1].append(k)
    return GradedModuleSummary.from_dict(acc).lowered(_words(c.tensor_stack).values())


def homology(c: MonomialComplex) -> GradedModuleSummary:
    """Homology of a single-variable complex as a graded module summary."""
    free, torsion, _ = _reduce(c)
    return _summary(c, free, torsion)


@dataclass(frozen=True)
class HomologyGenerator:
    label: object            # basis element the generator is read at
    grading: int             # doubled
    torsion_exp: int | None  # None for a free tower, else k in F2[U]/(U^k)


@dataclass(eq=False)
class HomologyPresentation:
    """Homology generators of `complex`, each with a representative cycle
    and a projection row, both bitsets over the positions of
    `complex.basis`, and a tag word w.  For a generator at doubled grading
    g, bit p of its representative is the term U^((g_p - g)/2) x_p (x) w,
    and bit p of its row the coefficient U^((g - g_p)/2) of x_p (x) w in
    its homology coordinate, g_p the grading of x_p (x) w."""

    complex: MonomialComplex
    summary: GradedModuleSummary
    generators: tuple[HomologyGenerator, ...]
    representatives: tuple[int, ...]
    rows: tuple[int, ...]
    words: tuple[tuple[int, ...], ...]


def _inverse_rows(basis: list[int], ps) -> list[int]:
    """Rows ps of the inverse of the unitriangular matrix with columns
    `basis`, in one transposed pass.  Bit q of a row is the parity of its
    bits below q against column q, so with masks[i] the rows (bit k for
    ps[k]) that have bit i, column q in increasing order sets masks[q] ^=
    masks[i] for each of its bits i < q.  The masks are read back as rows."""
    masks = [0] * len(basis)
    for k, p in enumerate(ps):
        masks[p] |= 1 << k
    for q, col in enumerate(basis):
        col ^= 1 << q
        while col:
            i = col.bit_length() - 1
            masks[q] ^= masks[i]
            col ^= 1 << i
    rows = [0] * len(ps)
    for i, m in enumerate(masks):
        while m:
            k = m.bit_length() - 1
            rows[k] |= 1 << i
            m ^= 1 << k
    return rows


def present_homology(c: MonomialComplex) -> HomologyPresentation:
    """Generators of the homology of c with representatives and projection
    rows: free towers first, then torsion summands by exponent, each in
    basis order.  Each word's copy of the base reduces on its own, in base
    order, so a stack's generators are the base generators, with their
    bitsets, tensored with each word, in the order of its (state, tag)
    labels: by grading, highest first, then by base label, then by word."""
    free, torsion, basis = _reduce(c)
    ps = [(0, j) for j in free] + torsion  # (k, position); k = 0 for a free tower
    rows = dict(zip([p for _, p in ps], _inverse_rows(basis, [p for _, p in ps])))
    labels, gradings, words = c.basis.labels(), c.basis.gradings(), _words(c.tensor_stack)
    # a stack's ties can span base gradings, so they go by label, not position
    ties = labels if c.tensor_stack else range(len(labels))
    order = sorted((k, s - gradings[p], ties[p], w, p) for k, p in ps for w, s in words.items())
    return HomologyPresentation(
        c,
        _summary(c, free, torsion),
        tuple(HomologyGenerator(_stacked_label(labels[p], w), -g, k or None) for k, g, _, w, p in order),
        tuple(basis[p] for *_, p in order),
        tuple(rows[p] for *_, p in order),
        tuple(w for *_, w, _ in order),
    )


# ---------------------------------------------------------------------------
# chain maps


@dataclass(eq=False)
class ChainMap:
    """A map of single-variable complexes: a base map, as the sum of its
    homogeneous parts, tensored with a map of tag words.

    `words` (by default the identity) sends x (x) w to f(x) (x) words[w],
    and to 0 for a w it does not hold.  Its `shift`, a source word's shift
    minus its image's, is one number on a move map and so on a composite.
    `parts` maps each degree d of the map to one int per base source
    element j, whose bit i is the entry U^((g_tgt(i) - g_src(j) - d +
    shift) / 2) at the i-th base target element.  An all-zero part is
    dropped, and an empty word map keeps none, so the zero map has no
    parts and a homogeneous map has one.  Sums and products are F2 work on
    the parts' columns (see `chain_defect`).  `entries`, column-sparse like
    a boundary, is a label-keyed view of the base map, made when first read.
    """

    src: MonomialComplex
    tgt: MonomialComplex
    parts: dict[int, list[int]]
    words: dict | None = None

    def __post_init__(self):
        if self.words is None:
            self.words = {w: w for w in _words(self.src.tensor_stack)}
        self.parts = {d: cols for d, cols in self.parts.items() if any(cols) and self.words}

    @cached_property
    def shift(self) -> int:
        w, v = next(iter(self.words.items()))
        return _words(self.src.tensor_stack)[w] - _words(self.tgt.tensor_stack)[v]

    @cached_property
    def entries(self) -> dict:
        parts = [(d - self.shift, cols) for d, cols in self.parts.items()]
        return _label_view(self.src.basis, self.tgt.basis, parts)


def _label_rows(src: GradedBasis, tgt: GradedBasis, degree: int, cols: list[int]) -> dict:
    """Label-keyed rows of bitset columns of one degree: bit i of column j
    is the entry U^((g_tgt(i) - g_src(j) - degree) / 2).  A gap the
    gradings cannot give (odd or negative) raises BrokenInvariant."""
    tgt_labels, tgt_gradings = tgt.labels(), tgt.gradings()
    powers = [u_power(k) for k in range((tgt_gradings[0] - src.elements[-1][1] - degree) // 2 + 1)]
    rows: dict = {}
    for (lab, g), col in zip(src.elements, cols):
        if col:
            row = rows[lab] = {}
            while col:
                i = col.bit_length() - 1
                gap = tgt_gradings[i] - g - degree
                if gap < 0 or gap & 1:
                    raise BrokenInvariant(f"{lab} -> {tgt_labels[i]}: gap {gap}, degree {degree}")
                row[tgt_labels[i]] = powers[gap >> 1]
                col ^= 1 << i
    return rows


def _label_view(src: GradedBasis, tgt: GradedBasis, parts) -> dict:
    """The label-keyed rows of (degree, columns) parts, summed."""
    rows: dict = {}
    for degree, cols in parts:
        for lab, row in _label_rows(src, tgt, degree, cols).items():
            acc = rows.setdefault(lab, {})
            for tgt_lab, p in row.items():
                acc[tgt_lab] = acc.get(tgt_lab, ZERO) + p
    return rows


def _summed(src: MonomialComplex, tgt: MonomialComplex, parts, words: dict) -> ChainMap:
    """The map with the given (degree, columns) parts, those of equal
    degree added over F2, tensored with `words`."""
    acc: dict = {}
    for degree, cols in parts:
        have = acc.get(degree)
        acc[degree] = cols if have is None else [a ^ b for a, b in zip(have, cols)]
    return ChainMap(src, tgt, acc, words)


def chain_defect(f: ChainMap):
    """The first source generator x with d_tgt(f(x)) != f(d_src(x)), as
    (x, d_tgt(f(x)), f(d_src(x))) with both sides {label: PolyF2U}; None
    when f is a chain map.  First is the failing base generator of least
    label, with the least word of `f.words`.

    Each part F, of degree deg, is checked as F D_src == D_tgt F over F2.
    That is exact: every entry of D (degree -2) or F is the monomial fixed
    by the gradings of its ends, so along any path j -> m -> t the
    exponents add to (g_t - g_j - deg + 2) / 2, and each side's entry is
    its path count mod 2 times that monomial.  The parts together are the
    whole check: D has one degree, so d f - f d is the sum over the parts
    of D F - F D, and at one pair (j, t) parts of different degrees give
    different exponents, so no term of one part cancels a term of another.
    Only the failing generator's two sides are built as label-keyed vectors.

    One kind of map needs no product, and reads no boundary column: a map
    of one part that keeps every state (each column one bit, at its
    source's own label) between two complexes that hold the pattern
    orders of live builds (`complexes._on_pattern`), whatever columns
    they have made.
    Whether a rectangle is empty depends on the states alone
    (Manolescu-Ozsvath-Szabo-Thurston, On combinatorial link Floer
    homology, 2007), so in lexicographic state order both boundaries are
    one F2 matrix P: the pattern's empty rectangles less its twins, which
    cancel in every build that succeeds.  With S and T the orders of the
    two bases, D_src = S P S^-1, D_tgt = T P T^-1 and F = T S^-1, so
    D_tgt F = T P S^-1 = F D_src, and the one degree fixes every exponent
    as above.  Such a map is a chain map, as the band maps (the switch
    keeps the states) and the composites of closed movies are.
    Any other map, such as one with a hand-built end, runs the products.
    """
    from .complexes import _on_pattern

    if len(f.parts) == 1 and _on_pattern(f.src) and _on_pattern(f.tgt):
        (cols,) = f.parts.values()
        src_labels, tgt_labels = f.src.basis.labels(), f.tgt.basis.labels()
        if all(
            col.bit_count() == 1 and tgt_labels[col.bit_length() - 1] == label
            for col, label in zip(cols, src_labels)
        ):
            return None
    ds, dt = _columns(f.src), _columns(f.tgt)
    bad = {
        j
        for cols in f.parts.values()
        for j, (col, d) in enumerate(zip(cols, ds))
        if _apply_bits(dt, col) != _apply_bits(cols, d)
    }
    if not bad:
        return None
    labels = f.src.basis.labels()
    j = min(bad, key=labels.__getitem__)
    w = min(f.words)
    x, parts = GradedBasis((f.src.basis.elements[j],)), [(d - f.shift - 2, c) for d, c in f.parts.items()]
    lhs = _label_view(x, f.tgt.basis, [(d, [_apply_bits(dt, c[j])]) for d, c in parts])
    rhs = _label_view(x, f.tgt.basis, [(d, [_apply_bits(c, ds[j])]) for d, c in parts])
    sides = [{_stacked_label(y, f.words[w]): p for y, p in v.get(labels[j], {}).items()} for v in (lhs, rhs)]
    return _stacked_label(labels[j], w), *sides


def is_chain_map(f: ChainMap) -> bool:
    """Exact check of d_tgt . f == f . d_src."""
    return chain_defect(f) is None


def chain_map_degree(f: ChainMap) -> int | None:
    """The doubled-grading shift of f, the degree of its one part; None for
    a zero map and for a mixed one."""
    return next(iter(f.parts)) if len(f.parts) == 1 else None


def identity_chain_map(c: MonomialComplex) -> ChainMap:
    return ChainMap(c, c, {0: [1 << j for j in range(len(c.basis))]})


def scale_chain_map(f: ChainMap, p: PolyF2U) -> ChainMap:
    """p f for p in F2[U]: the term U^k of p moves each part of f down by
    2k in degree."""
    parts = [(d - 2 * k, cols) for k in p.terms for d, cols in f.parts.items()]
    return _summed(f.src, f.tgt, parts, f.words)


def _ends(c: MonomialComplex) -> tuple:
    return c.basis, c.tensor_stack


def _require_alike(f: ChainMap, g: ChainMap, action: str) -> None:
    """Refuse maps of other ends, or nonzero maps on other word maps."""
    if (_ends(f.src), _ends(f.tgt)) != (_ends(g.src), _ends(g.tgt)):
        raise NotChainMap(f"cannot {action} maps with different endpoints")
    if f.parts and g.parts and f.words != g.words:
        raise NotChainMap(f"cannot {action} maps with different word maps")


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f: the word maps composed and, unless that is empty, the F2
    product of each pair of parts at the sum of their degrees."""
    if _ends(f.tgt) != _ends(g.src):
        raise NotChainMap("composition endpoints do not match")
    words = {w: g.words[v] for w, v in f.words.items() if v in g.words}
    return _summed(f.src, g.tgt, words and (
        (df + dg, [_apply_bits(gc, col) for col in fc])
        for df, fc in f.parts.items()
        for dg, gc in g.parts.items()
    ), words)


def chain_maps_equal(f: ChainMap, g: ChainMap) -> bool:
    """Matrix equality (pointwise, not just on homology): equal parts."""
    _require_alike(f, g, "compare")
    return f.parts == g.parts


def induced_map(
    f: ChainMap,
    src_pres: HomologyPresentation,
    tgt_pres: HomologyPresentation,
) -> list[list[PolyF2U]]:
    """Matrix of f on homology generators: rows = target generators,
    columns = source generators.

    Computed over F2 on the bitsets, part by part, which is exact for the
    same reason as `chain_defect`: the gradings fix every exponent.  With
    deg the degree of a part, a source generator j at g_j and a target
    generator i at g_i, a term of j's representative at p (U^((g_p -
    g_j)/2)), the part's entry p -> q (U^((g_q - g_p - deg)/2)) and i's row
    at q (U^((g_i - g_q)/2)) multiply to U^e with e = (g_i - g_j - deg)/2
    along every path.  So the part adds parity(row_i & f(rep_j)) U^e to
    entry (i, j), nothing when i is a summand F2[U]/(U^k) with e >= k.  A
    nonzero parity with an odd or negative e means the gradings do not fit
    the bitsets, and raises BrokenInvariant.  On stacks, entry (i, j) is
    0 unless f's word map sends j's word to i's.
    """
    for c, pres in ((f.src, src_pres), (f.tgt, tgt_pres)):
        if _ends(c) != _ends(pres.complex):
            raise NotChainMap("map and presentation do not share their ends")
    if not is_chain_map(f):
        raise NotChainMap("map does not commute with the boundaries")
    matrix = [[ZERO] * len(src_pres.representatives) for _ in tgt_pres.rows]
    for degree, cols in f.parts.items():
        images = [_apply_bits(cols, rep) for rep in src_pres.representatives]
        for i, (gen, row, word) in enumerate(zip(tgt_pres.generators, tgt_pres.rows, tgt_pres.words)):
            for j, (src_gen, image, src_word) in enumerate(zip(src_pres.generators, images, src_pres.words)):
                if f.words.get(src_word) == word and (row & image).bit_count() & 1:
                    gap = gen.grading - src_gen.grading - degree
                    if gap < 0 or gap & 1:
                        raise BrokenInvariant(
                            f"generators {src_gen.label} at doubled grading {src_gen.grading}"
                            f" and {gen.label} at {gen.grading}: odd or negative gap for"
                            f" degree {degree}"
                        )
                    if gen.torsion_exp is None or gap >> 1 < gen.torsion_exp:
                        matrix[i][j] += u_power(gap >> 1)
    return matrix


def maps_equal_on_homology(f: ChainMap, g: ChainMap) -> bool:
    """True iff f and g induce the same matrix on homology, that is iff
    (f - g)(z) is a boundary for every homology representative z: the
    projection, truncation mod U^k included, is F2[U]-linear.  A g whose
    ends are not f's is refused by `induced_map`."""
    src_pres = present_homology(f.src)
    tgt_pres = src_pres if _ends(f.tgt) == _ends(f.src) else present_homology(f.tgt)
    return induced_map(f, src_pres, tgt_pres) == induced_map(g, src_pres, tgt_pres)

