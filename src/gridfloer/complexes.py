"""Grid states, the doubled delta grading, and the boundary operators.

States of an n x n grid are permutations: state[c] is the row of the lattice
point in column c.  The boundary counts empty toroidal rectangles between
states differing in exactly two columns; coefficients record the markings a
rectangle covers, either as one variable per marking or specialized to a
single U.

Markings are numbered as the variables of a multivariable monomial
(`algebra`): the O in row r is marking r and the X in row r is marking
n + r.  Emptiness of a rectangle depends on its two states only, so one
walk per size (`_rectangle_pattern`, kept for the process) lists each
state's empty rectangles: targets and classes (start column a, end column
b, bottom row s, height h) in flat arrays, with a target both rectangles
reach (a twin) kept apart.  At n = 8: 720 384 entries and 57 984 twins,
about 3.7 MB.  A grid places its markings once, in line masks
(`_line_masks`, bit i for marking i): a class covers the AND of a column
band and a row band, the grading table counts the markings in two corners
cut out by bands, and the curvature sums the width-one bands.
`build_complex` keeps the masks, and its label-keyed boundary is made only
when read (`_mask_boundary`): a rectangle is the code of its mask
(`_code`) and a twin the F2 sum of two.
`build_gc_prime` checks U^(bit count) against the gradings once per
class: 2 I(x, x), read from a table made once per size (`_pair_counts`),
less 2 I(y, y) is one number over a class's entries x -> y
(`_class_gaps`, certified once per pattern).  It returns the pattern
read through the grid's state order (`PatternOrder`) and makes no
column: `_column_maker` sets one bit per entry of a column over the
graded basis, when `columns` is first read or when `algebra._reduce`
reaches the column.  `_reduce` certifies d^2 = 0 once per size
(`_SQUARE_FREE`), reading every column of that first complex.

The square of the multivariable boundary (`_grouped_square`, for
`algebra.boundary_squared`) reads the pattern's two-step paths grouped by
their ends (`_path_groups`, made once per size, on the first square of
that size): a group is kept as the unordered class pairs its paths hold
an odd number of times, and identical groups once, as shapes.  At n = 5:
1 320 shapes of 5 200 pairs for 2 320 groups, about 41 kB; at n = 6:
5 520 shapes of 23 040 pairs for 24 096 groups, about 0.23 MB; at n = 7:
19 740 shapes of 111 720 pairs for 255 528 groups, about 1.6 MB.
"""
from __future__ import annotations

import functools
import itertools
import weakref
from array import array
from collections import Counter
from itertools import accumulate, chain, compress, groupby, repeat
from operator import add, and_, getitem, lt, ne, or_, rshift, sub
from typing import NamedTuple

from .algebra import GradedBasis, MonomialComplex
from .errors import BrokenInvariant, CapExceeded, NonPermutation, NotHomogeneous
from .grids import GridDiagram, link_topology

DEFAULT_STATE_CAP = 8

State = tuple[int, ...]


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(f"grid size {n} exceeds the state cap {cap}")


def enumerate_states(n: int, cap: int = DEFAULT_STATE_CAP) -> list[State]:
    """All n! states in lexicographic order; refuses sizes above the cap.
    Up to the default cap they are the pair table's keys, shared by every build."""
    _check_cap(n, cap)
    return list(_pair_counts(n) if n <= DEFAULT_STATE_CAP else itertools.permutations(range(n)))


def _line_masks(g: GridDiagram) -> tuple[list[list[int]], list[list[int]]]:
    """(cols, rows): cols[a][w] is the mask of the markings in the w columns
    a, ..., a + w - 1 and rows[s][h] that of the h rows s, ..., s + h - 1,
    indices mod n, w and h from 0 to n, bit i for marking i."""
    n = g.n
    col, row = [0] * n, [1 << r | 1 << (n + r) for r in range(n)]
    for r in range(n):
        col[g.o_col[r]] |= 1 << r
        col[g.x_col[r]] |= 1 << (n + r)

    def bands(line):
        return [list(itertools.accumulate(line[a:] + line[:a], or_, initial=0)) for a in range(n)]

    return bands(col), bands(row)


def _code(mask: int) -> int:
    """The product of the variables of the markings in a mask, as its code:
    the mask read in base 4, bit i moved to bit 2i."""
    return int(f"{mask:b}", 4)


def _grid_grading_part(g: GridDiagram) -> tuple[list[list[int]], int]:
    """The state-independent part of `delta_grading`.

    Returns a table and a constant.  table[c][r] counts the markings (O and
    X) in open first-quadrant position from the lattice point (c, r) plus
    the markings from which (c, r) is in open first-quadrant position.  The
    constant is OO + XX + (n - l) + 2, where OO and XX count marking pairs
    in open first-quadrant position and l is the component count.
    """
    n = g.n
    cols, rows = _line_masks(g)
    # in doubled coordinates a marking (2m+1) is right of / above a lattice
    # line (2c) iff m >= c: the markings up and right of (c, r) lie in the
    # columns from c and the rows from r, those down and left before them
    table = [
        [
            (cols[c][n - c] & rows[r][n - r]).bit_count() + (cols[0][c] & rows[0][r]).bit_count()
            for r in range(n)
        ]
        for c in range(n)
    ]
    # OO and XX: one marking of a kind per row and column, so a pair is an ascent of its columns
    l = link_topology(g).component_count
    return table, _ascents(g.o_col) + _ascents(g.x_col) + (n - l) + 2


def delta_grading(g: GridDiagram, state: State, grid_part=None) -> int:
    """Doubled delta grading of a state.

    In doubled coordinates lattice points (2c, 2r) and markings (2c+1, 2r+1)
    never share a coordinate line, and "first quadrant" is open (strict
    inequalities).  With I(P, Q) the pairs p in P, q in Q with q up and to
    the right of p, and x the state's points, the grading is
    J(x-O, x-O) + J(x-X, x-X) + (n - l) + 2, which expands to
    2 I(x, x) - sum over the points of x of `table[c][x[c]]` + const, with
    (table, const) = `_grid_grading_part(g)`.  Callers that grade every
    state of one grid pass that as `grid_part`.  Up to the default cap,
    2 I(x, x) is read from a table made once per size (`_pair_counts`).
    """
    table, const = grid_part or _grid_grading_part(g)
    if g.n > DEFAULT_STATE_CAP:
        if sorted(state) != list(range(g.n)):
            raise NonPermutation(f"state {tuple(state)} is not a permutation of 0..{g.n - 1}")
        pairs = 2 * _ascents(state)
    else:
        try:
            pairs = _pair_counts(g.n)[tuple(state)]
        except KeyError:  # the table holds exactly the states of size n
            raise NonPermutation(f"state {tuple(state)} is not a permutation of 0..{g.n - 1}") from None
    return pairs - sum(map(getitem, table, state)) + const


def _ascents(seq) -> int:
    """The pairs i < j with seq[i] < seq[j]."""
    return sum(itertools.starmap(lt, itertools.combinations(seq, 2)))


@functools.cache
def _pair_counts(n: int) -> dict[State, int]:
    """2 `_ascents(x)` of each state x of size n.  The state of lexicographic
    rank j has as many inversions as j has digit sum in factorial base, so
    its ascents sum the complements m - 1 - d of its digits d of weight (m - 1)!."""
    counts = [0]
    for m in range(2, n + 1):  # the ranks below m!: each complement held for (m - 1)! ranks
        held = chain.from_iterable(map(repeat, range(2 * m - 2, -1, -2), repeat(len(counts))))
        counts = list(map(add, counts * m, held))
    return dict(zip(itertools.permutations(range(n)), counts))


def _graded_basis(g: GridDiagram, states: list[State], part=None) -> tuple[list[int], GradedBasis]:
    """The states' gradings, in the order given, and their graded basis;
    `part` is g's `_grid_grading_part`, made here when not given."""
    part = part or _grid_grading_part(g)
    grading = [delta_grading(g, s, part) for s in states]
    return grading, GradedBasis(tuple(zip(states, grading)))


@functools.cache
def _rectangle_pattern(n: int) -> tuple:
    """(corners, offsets, targets, classes, twins) of every n x n grid.  A
    set of states is an int, bit i for state i; the walk right from column
    a narrows the states through (a, s) to those whose rectangle is empty.
    Class p n^2 + s n + t is column pair p from row s to row t; swapping its
    columns adds a constant of the class to a state's base-256 code."""
    flat = bytes(chain.from_iterable(itertools.permutations(range(n))))
    count, pairs = len(flat) // n, [(a, b) for a in range(n) for b in range(a + 1, a + n)]
    cols, slot = [flat[c::n] for c in range(n)], {ab: p for p, ab in enumerate(pairs)}
    at = [  # at[c][r]: the states through (c, r)
        [int(col[::-1].translate(b"0" * r + b"1" + b"0" * (255 - r)), 2) for r in range(n)]
        for col in cols
    ]
    empty, twins = [0] * len(pairs), [0] * len(pairs)  # by pair: states with that rectangle
    for s, h in itertools.product(range(n), range(1, n)):
        # keep[c]: the states whose point in column c is not strictly inside rows s to s + h
        keep = [~functools.reduce(or_, (at_c[(s + i) % n] for i in range(1, h)), 0) for at_c in at]
        for a in range(n):
            states = at[a][s]
            for b in range(a + 1, a + n):
                empty[slot[a, b]] |= states & at[b % n][(s + h) % n]
                states &= keep[b % n]
    for p, q in ((slot[a, b], slot[b, a + n]) for a, b in pairs if b < n):  # a to b, b to a
        twins[p] = empty[p] & empty[q]
        empty[p], empty[q] = empty[p] ^ twins[p], empty[q] ^ twins[p]
    kinds = [(a, b, s, t) for a, b in pairs for s in range(n) for t in range(n)]
    shift = [(t - s) * (256**a - 256 ** (b % n)) for a, b, s, t in kinds]
    code = [int.from_bytes(flat[i : i + n], "little") for i in range(0, len(flat), n)]
    index, typecode = {c: j for j, c in enumerate(code)}, "H" if count <= 1 << 16 else "I"

    def listed(sets):  # (entries per state, classes, targets) of the sets, in state order
        slots, total, width = bytearray(2 * count * len(pairs)), 0, 2 * len(pairs)
        for p, (a, b) in enumerate(pairs):  # byte pairs (p, x[a] n + x[b]); 255 if not held
            digits = f"{sets[p]:0{count}b}"[::-1].encode()
            rows = int.from_bytes(cols[a], "little") * n + int.from_bytes(cols[b % n], "little")
            off = int.from_bytes(digits.translate(bytes.maketrans(b"01", b"\xff\0")), "little")
            slots[2 * p :: width] = digits.translate(bytes.maketrans(b"01", bytes((255, p))))
            slots[2 * p + 1 :: width] = (rows | off).to_bytes(count, "little")
            total += int.from_bytes(digits.translate(bytes.maketrans(b"01", b"\0\1")), "little")
        slots, per_state = slots.translate(None, b"\xff"), total.to_bytes(count, "little")
        classes = array("H", map(add, map((n * n).__mul__, slots[::2]), slots[1::2]))
        sources = chain.from_iterable(map(repeat, code, per_state))
        codes = map(add, sources, map(shift.__getitem__, classes))
        return per_state, classes, array(typecode, map(index.__getitem__, codes))

    per_state, classes, targets = listed(empty)
    twin_count, twin_classes, twin_targets = listed(twins)
    other = [slot[b % n, b % n + (a - b) % n] * n * n + t * n + s for a, b, s, t in kinds]
    sources = chain.from_iterable(map(repeat, range(count), twin_count))
    quads = zip(sources, twin_targets, twin_classes, map(other.__getitem__, twin_classes))
    corners = tuple(array("B", v) for v in zip(*((a, b, s, (t - s) % n) for a, b, s, t in kinds)))
    offsets = array("I", itertools.accumulate(per_state, initial=0))
    return corners, offsets, targets, classes, array(typecode, chain.from_iterable(quads))


# size -> the rectangle pattern whose d^2 = 0 `algebra._reduce` certified
_SQUARE_FREE: dict[int, tuple] = {}

# size -> (rectangle pattern, its `_class_gaps`), certified on that pattern
_CLASS_GAPS: dict[int, tuple] = {}


def _class_gaps(n: int, pattern: tuple) -> tuple[array, array, array]:
    """(in use, gaps, twin classes) of `pattern`, the rectangle pattern of
    size n: the classes with an entry, gaps[i] = 2 I(x, x) - 2 I(y, y) for
    the entries x -> y of class in_use[i], one number over the class, which
    this checks on every entry, and the class pairs (k, other) of the twins,
    flat.  All depend on the states alone, so they serve every grid of the
    size: made once per pattern, and kept only once the check passes."""
    held = _CLASS_GAPS.get(n)
    if held is not None and held[0] is pattern:
        return held[1]
    _, offsets, targets, classes, twins = pattern
    two_i = bytes(_pair_counts(n).values())  # by state, in the pattern's order; each below n^2
    sources = chain.from_iterable(map(repeat, two_i, map(sub, offsets[1:], offsets)))
    seen = set(zip(classes, map(sub, sources, map(two_i.__getitem__, targets))))
    gaps = dict(seen)
    if len(gaps) != len(seen):
        k = next(k for k, count in Counter(k for k, _ in seen).items() if count > 1)
        varied = sorted(d for c, d in seen if c == k)
        raise BrokenInvariant(f"class {k} of the size-{n} rectangle pattern has gaps {varied}")
    twin_classes = chain.from_iterable(set(zip(twins[2::4], twins[3::4])))
    record = array("H", gaps), array("h", gaps.values()), array("H", twin_classes)
    _CLASS_GAPS[n] = pattern, record
    return record


def _class_masks(g: GridDiagram, corners) -> list[int]:
    """The markings each class of rectangle covers on g, as masks."""
    cols, rows = _line_masks(g)
    return [cols[a][b - a] & rows[s][h] for a, b, s, h in zip(*corners)]


def _odd_values(groups: tuple, codes: list[int], S: int):
    """(shape, values) for each shape of `groups` whose pairs (k1, k2) give
    some value codes[k1] + codes[k2] < 2^S an odd number of times, with
    those values.  A shape of two pairs is odd exactly when its two values
    differ, which is compared for all of them at once; the other shapes
    are counted in one Counter over the keys (shape << S) + value."""
    first, second, bounds, two = groups[:4]
    values = list(map(add, map(codes.__getitem__, first), map(codes.__getitem__, second)))
    m = 2 * two
    if values[0:m:2] != values[1:m:2]:
        for s in compress(range(two), map(ne, values[0:m:2], values[1:m:2])):
            yield s, frozenset(values[2 * s : 2 * s + 2])
    sizes = map(sub, bounds[two + 1 :], bounds[two:])
    keys = chain.from_iterable(map(repeat, range(two << S, len(bounds) - 1 << S, 1 << S), sizes))
    counts = Counter(map(add, keys, values[m:]))
    odd = list(compress(counts, map(and_, counts.values(), repeat(1))))  # shape by shape
    at, mask = 0, (1 << S) - 1
    for s, k in Counter(map(rshift, odd, repeat(S))).items():
        yield s, frozenset(map(and_, odd[at : at + k], repeat(mask)))
        at += k


def _grouped_square(c: MonomialComplex) -> dict:
    """`algebra.boundary_squared` of a complex from `build_complex`: the
    codes of its masks counted over the groups of the pattern of its size,
    each group's entry the codes it counts an odd number of times."""
    n, classes = c.grid.n, len(_rectangle_pattern(c.grid.n)[0][0])
    if len(c.masks) != classes or max(c.masks) >> c.marking_count:
        raise BrokenInvariant(
            f"{len(c.masks)} masks for {classes} classes of rectangles on {c.marking_count} markings"
        )
    labels, groups = enumerate_states(n, n), _path_groups(n)  # the pattern's state order
    count, (ends, reach) = len(labels), groups[4:]
    out: dict = {}
    shared: dict[frozenset, frozenset] = {}  # equal entries, such as every diagonal one, share one
    for s, values in _odd_values(groups, list(map(_code, c.masks)), 2 * c.marking_count):
        values = shared.setdefault(values, values)
        for e in ends[reach[s] : reach[s + 1]]:
            x, z = divmod(e, count)
            out.setdefault(labels[x], {})[labels[z]] = values
    return out


def build_complex(g: GridDiagram, cap: int = DEFAULT_STATE_CAP) -> MonomialComplex:
    """The multivariable complex: the masks of g's classes of rectangles,
    from which `boundary_squared` reads its codes; its label-keyed boundary
    is made from them when first read (`_mask_boundary`)."""
    states = enumerate_states(g.n, cap)
    masks = _class_masks(g, _rectangle_pattern(g.n)[0])
    return MonomialComplex(_graded_basis(g, states)[1], 2 * g.n, g, masks=masks)


def _mask_boundary(c: MonomialComplex) -> dict:
    """The label-keyed boundary of a complex from `build_complex`: a
    rectangle of the pattern of its size is the code of its class's mask,
    one frozenset shared per mask, and a twin the F2 sum of two."""
    states, masks = enumerate_states(c.grid.n, c.grid.n), c.masks  # the pattern's state order
    _, offsets, targets, classes, twins = _rectangle_pattern(c.grid.n)
    single = {m: frozenset((_code(m),)) for m in set(masks)}
    entry = [single[m] for m in masks]
    boundary = {
        x: dict(zip(map(states.__getitem__, targets[lo:hi]), map(entry.__getitem__, classes[lo:hi])))
        for x, lo, hi in zip(states, offsets, offsets[1:])
        if lo < hi
    }
    pairs: dict[frozenset, frozenset] = {}
    for x, y, k, other in zip(*[iter(twins)] * 4):
        both = entry[k] ^ entry[other]  # the F2 sum of the two monomials
        if both:
            boundary.setdefault(states[x], {})[states[y]] = pairs.setdefault(both, both)
    return boundary


@functools.cache
def _path_groups(n: int) -> tuple:
    """The two-step paths of every n x n grid, grouped by their ends.

    The terms of the boundary at a source x are the pattern's rectangles
    from x, each a target y and a class k < K, a twin as two rectangles to
    one target.  The paths x -> y -> z that share one pair (x, z) form a
    group, a multiset of class pairs (k1, k2).  A path's value is the sum
    of its two classes' codes, so the order within a pair does not change
    it, and a pair met twice adds its value twice: the parity count of the
    group depends only on the unordered pairs it holds an odd number of
    times.  That set is kept, as k1 K + k2 with k1 <= k2, and identical
    sets once, as a shape; a group whose set is empty, such as two
    rectangles taken in either order, is left out.

    Returns (first, second, bounds, two, ends, reach): shape s holds the
    pairs (first[i], second[i]) for i in range(bounds[s], bounds[s + 1]),
    the shapes below `two` hold two pairs each, and the groups of shape s
    are the ends x n! + z in ends[reach[s]:reach[s + 1]].
    """
    corners, offsets, targets, classes, twins = _rectangle_pattern(n)
    rows = [(targets[lo:hi], classes[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
    for x, y, k, other in zip(*[iter(twins)] * 4):
        rows[x][0].extend((y, y))
        rows[x][1].extend((k, other))
    count, K = len(rows), len(corners[0])
    KK = K * K
    pair_kind, end_kind = ("I" if m <= 1 << 32 else "q" for m in (KK, count * count))
    shape_of: dict[bytes, int] = {}  # the shapes, numbered in the order first met
    group_end, group_shape = array(end_kind), array("i")
    for x in range(count):
        paths = Counter(
            z * KK + (k1 * K + k2 if k1 <= k2 else k2 * K + k1)
            for y, k1 in zip(*rows[x])
            for z, k2 in zip(*rows[y])
        )
        odd = sorted(compress(paths, map(and_, paths.values(), repeat(1))))
        for z, run in groupby(odd, KK.__rfloordiv__):  # the group of (x, z)
            key = array(pair_kind, map((-z * KK).__add__, run)).tobytes()
            group_end.append(x * count + z)
            group_shape.append(shape_of.setdefault(key, len(shape_of)))
    width = array(pair_kind).itemsize
    shapes = sorted(shape_of, key=lambda key: len(key) != 2 * width)  # two pairs first; stable
    rank = array("i", [0]) * len(shapes)  # old number -> new
    for s, key in enumerate(shapes):
        rank[shape_of[key]] = s
    del shape_of
    kind = "H" if K <= 1 << 16 else "I"
    first, second = array(kind), array(kind)
    for key in shapes:
        pairs = array(pair_kind, key)
        first.extend(map(K.__rfloordiv__, pairs))
        second.extend(map(K.__rmod__, pairs))
    two = sum(len(key) == 2 * width for key in shapes)
    bounds = array("I", accumulate((len(key) // width for key in shapes), initial=0))
    at = [0] * len(rank)  # the groups by shape: a counting sort
    for i, s in enumerate(group_shape):
        group_shape[i] = s = rank[s]
        at[s] += 1
    reach = array("I", accumulate(at, initial=0))
    at[:] = reach[:-1]
    ends = array(end_kind, [0]) * len(group_end)
    for e, s in zip(group_end, group_shape):
        ends[at[s]] = e
        at[s] += 1
    return first, second, bounds, two, ends, reach


# The single-variable complexes alive in this process, by grid.  The values
# are weak: a complex is reused only while some caller still holds it, so a
# grid that one computation reaches again (a movie's start grid, switched
# back to) is built once, and nothing outlives the computation that built
# it.  This is only a build cache: equal complexes are told by their ends
# (`algebra._ends`), not by identity.
_GC_PRIME_ALIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def build_gc_prime(g: GridDiagram, cap: int = DEFAULT_STATE_CAP) -> MonomialComplex:
    """The single-variable complex: every marking variable set to U.

    Equals `build_complex(g)` with every variable of each monomial sent
    to U and equal monomials cancelled, built from the same rectangle
    pattern with each rectangle weighted by its marking count.
    While a complex of an equal grid is still held elsewhere, that same
    (immutable) complex is returned.
    """
    _check_cap(g.n, cap)
    c = _GC_PRIME_ALIVE.get(g)
    if c is None:
        c = _GC_PRIME_ALIVE[g] = _build_gc_prime(g)
    return c


class PatternOrder(NamedTuple):
    """A single-variable complex as its rectangle pattern read through its
    grid's state order: basis index j holds the state of lexicographic
    rank ranks[j], and positions[r] is the basis index of rank r."""

    pattern: tuple
    ranks: array
    positions: array


def _column_maker(order: PatternOrder):
    """The maker of the bitset columns of the complex of `order`: column j
    has bit positions[y] for each target y of the state of rank ranks[j]
    in the pattern less its twins.  Every column of a built complex is
    made by one; the byte and bit of each position are tabled per maker."""
    _, offsets, targets, _, _ = order.pattern
    ranks, width = order.ranks, (len(order.ranks) >> 3) + 1
    byte, bit = [i >> 3 for i in order.positions], [1 << (i & 7) for i in order.positions]

    def column(j: int) -> int:
        x, col = ranks[j], bytearray(width)  # little-endian: bit i is basis element i
        for y in targets[offsets[x] : offsets[x + 1]]:
            col[byte[y]] |= bit[y]
        return int.from_bytes(col, "little")

    return column


def _on_pattern(c: MonomialComplex) -> bool:
    """True when c holds the pattern order of the build of its grid alive
    in this process (c itself, or a stack of it), so that its boundary,
    read in lexicographic state order, is that order's rectangle pattern
    less its twins.  A complex given its columns holds no order, so it
    never is.  Reads the cache only; never builds, and makes no column."""
    built = _GC_PRIME_ALIVE.get(c.grid)
    return built is not None and built.order is c.order


def _build_gc_prime(g: GridDiagram) -> MonomialComplex:
    """The single-variable complex as its `PatternOrder`: its columns, with
    sources in the basis order, are made only when read.  An entry x -> y
    of class k (columns a, b, rows s, t) has delta(x) - delta(y) =
    2 I(x, x) - 2 I(y, y) - (table[a][s] + table[b][t] - table[a][t] -
    table[b][s]), one number for the class (`_class_gaps`), so U^weight[k]
    fits the gradings on every entry of k exactly when it fits on one.  A
    failure names the first entry, in basis order, of a failing class, or
    the first twin of mixed weights."""
    states = enumerate_states(g.n, g.n)  # build_gc_prime checked the cap
    part = _grid_grading_part(g)
    grading, basis = _graded_basis(g, states, part)
    ranks = array("I", sorted(range(len(states)), key=grading.__getitem__, reverse=True))  # stable
    positions = array("I", sorted(range(len(states)), key=ranks.__getitem__))
    corners, offsets, targets, classes, twins = pattern = _rectangle_pattern(g.n)
    in_use, gaps, twin_classes = _class_gaps(g.n, pattern)
    weight = [mask.bit_count() for mask in _class_masks(g, corners)]
    pairs = zip(twin_classes[::2], twin_classes[1::2])
    mixed = {pair for pair in pairs if weight[pair[0]] != weight[pair[1]]}  # U^k + U^k cancels
    if mixed:
        x, y, k, other = next(q for q in zip(*[iter(twins)] * 4) if q[2:] in mixed)
        weights = sorted((weight[k], weight[other]))
        raise NotHomogeneous(
            f"surviving rectangles {states[x]} -> {states[y]} have mixed weights {weights}"
        )
    n, table, broken = g.n, part[0], set()
    for k, gap in zip(in_use, gaps):  # the columns a, b and rows s, t of class k
        a, b, s, h = (corner[k] for corner in corners)
        b, t = b % n, (s + h) % n
        if gap - (table[a][s] + table[b][t] - table[a][t] - table[b][s]) != 2 - 2 * weight[k]:
            broken.add(k)
    if broken:
        entries = ((j, i) for j in ranks for i in range(offsets[j], offsets[j + 1]))
        j, i = next((j, i) for j, i in entries if classes[i] in broken)
        t, k = targets[i], weight[classes[i]]
        raise NotHomogeneous(
            f"entry {states[j]}->{states[t]} = U^{k} breaks grading: "
            f"{grading[j]} - {grading[t]} != {2 - 2 * k}"
        )
    return MonomialComplex(basis, 2 * g.n, g, order=PatternOrder(pattern, ranks, positions))


def expected_curvature(g: GridDiagram) -> frozenset[int]:
    """The diagonal entry that the squared multivariable boundary must equal:
    the F2 sum, over every column and every row, of the product of the
    variables of the two markings in that line, as codes."""
    lines: set[int] = set()
    for band in chain(*_line_masks(g)):
        lines ^= {band[1]}
    return frozenset(map(_code, lines))


def verify_curvature(g: GridDiagram, cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff the multivariable boundary squares to the curvature diagonal:
    each state's row of the square holds that state alone, with the
    expected value."""
    from .algebra import boundary_squared

    c = build_complex(g, cap)
    expected, sq = expected_curvature(g), boundary_squared(c)
    return all(sq.get(x) == {x: expected} for x in c.basis.labels())
