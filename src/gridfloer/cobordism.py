"""Chain maps for elementary cobordism moves and their composition.

Band moves (switches) act between the complexes of a grid and its switched
grid, which share one generator set; the map multiplies selected generators
by U according to the distinguished-point rule.  Quasi- and disk
stabilizations act algebraically, in the shape of GH'(G) = HFK'(L) (x)
W^(n - l) (Ozsvath-Stipsicz-Szabo, Unoriented knot Floer homology and the
unoriented four-ball genus, IMRN 2017): the complex is tensored with a
rank-2 free module with zero differential, and destabilizations project
back.  So a stabilized complex is its base grid complex plus its stack of
`QuasiStab` and `DiskStab` moves, and every move map is a base map
tensored with a map of tag words (see `algebra`; tag 0 is plus, tag 1
minus, the move's `gap` below it).  A band map is its base map, built and
checked on the base, with the identity on words; a stabilization sends w
to w plus, a destabilization w keep to w; renumbering is the identity.
A move's target gets its stack as a copy of a complex that shares its
basis and form (`_restacked`), so only a switch builds a complex, and no
move makes a column: a built complex's columns are made when read.

A movie move is plain data: the switch move is its `BandMapChoice`, a
quasi-(de)stabilization carries its anchor marking, and the disk moves
carry nothing.  Two disjoint switches commute when their two orders,
each composed as a movie, induce one matrix on homology
(`verify_commutation`).  A band map's `ChainMapViolation` names the first
failing base state with every tag plus: the first failing stacked
generator when labels (state, tag) are ordered by state, then by tag index.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .algebra import (
    ChainMap,
    HomologyPresentation,
    MonomialComplex,
    PolyF2U,
    _ends,
    _words,
    chain_defect,
    chain_map_degree,
    compose_chain_maps,
    homology,
    identity_chain_map,
    induced_map,
    present_homology,
)
from .complexes import DEFAULT_STATE_CAP, build_gc_prime
from .errors import (
    AnchorMismatch,
    BadPermutation,
    BrokenInvariant,
    ChainMapViolation,
    InvalidSite,
    MoveSequenceInvalid,
    ParseError,
    SitesNotDisjoint,
)
from .grids import (
    GridDiagram,
    SwitchSite,
    apply_switch,
    same_letter_neighbors,
    site_diagonal,
    validate,
)

# ---------------------------------------------------------------------------
# move descriptions


@dataclass(frozen=True)
class BandMapChoice:
    """The switch move: a site and the direction of its band map.

    The map multiplies by U the generators that the distinguished-point
    rule selects (`band_map_raw`).  direction is bookkeeping for movie
    scripts; the reverse move is simply the switch performed on the
    switched grid, whose flipped diagonal supplies the complementary
    U-placement on its own.
    """

    site: SwitchSite
    direction: str = "forward"   # "forward" | "inverse"

    def __post_init__(self):
        if self.direction not in ("forward", "inverse"):
            raise ValueError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class QuasiStab:
    """A quasi-stabilization: tensoring with a rank-2 free module.

    The new basepoint pair sits next to `anchor`, a marking id of the base
    grid.  The two new generators carry doubled-grading offsets (0, -gap)
    with the gap derived from small-grid homologies.
    """

    anchor: int
    gap = property(lambda self: derived_stab_offsets()[0])


@dataclass(frozen=True)
class QuasiDestab:
    """Projection off the latest quasi-stabilization, named by its anchor or
    a same-letter neighbor of it."""

    anchor: int


@dataclass(frozen=True)
class DiskStab:
    gap = property(lambda self: derived_stab_offsets()[1])


@dataclass(frozen=True)
class DiskDestab:
    pass


@dataclass(frozen=True)
class Renumber:
    perm: tuple[int, ...]


@dataclass(frozen=True)
class Movie:
    start: GridDiagram
    moves: tuple = ()


# ---------------------------------------------------------------------------
# derived grading offsets


@functools.cache
def derived_stab_offsets() -> tuple[int, int]:
    """(quasi gap, disk gap) in doubled gradings, derived from grids.

    The quasi gap is the unique shift making H(2x2 unknot) + a shifted copy
    equal H(3x3 unknot); the disk gap likewise matches the split union of
    two 2x2 unknots against four shifted copies.  Configuration data, never
    hardcoded.
    """
    h2 = homology(build_gc_prime(validate((0, 1), (1, 0))))
    h3 = homology(build_gc_prime(validate((0, 1, 2), (1, 2, 0))))
    h_split = homology(build_gc_prime(validate((0, 1, 2, 3), (1, 0, 3, 2))))
    quasi = [s for s in range(-6, 7) if h2.lowered((0, s)) == h3]
    if len(quasi) != 1:
        raise BrokenInvariant(f"quasi gap not unique: {quasi}")
    s_v = quasi[0]
    disk = [s for s in range(-6, 7) if h2.lowered((0, s_v, s, s + s_v)) == h_split]
    if len(disk) != 1:
        raise BrokenInvariant(f"disk gap not unique: {disk}")
    return s_v, disk[0]


# ---------------------------------------------------------------------------
# stacks


def _restacked(c: MonomialComplex, stack: tuple) -> MonomialComplex:
    """c's base under `stack`: c itself when that is its stack, else a copy
    that shares c's basis and form and holds the base it came from.  A
    built complex's form is its pattern order, so the copy makes no column:
    its columns are the base's, made on the first read through either."""
    if stack == c.tensor_stack:
        return c
    grown = len(stack) - len(c.tensor_stack)
    columns = c.columns if c.order is None else None  # given columns, or None for masks
    return MonomialComplex(
        c.basis, c.marking_count + 2 * grown, c.grid, stack, columns, c.base or c, c.masks, c.order
    )


# ---------------------------------------------------------------------------
# band maps


def band_map_raw(c: MonomialComplex, choice: BandMapChoice) -> ChainMap:
    """The U-placement map of a switch, without the chain-map assertion."""
    if c.masks is not None or c.grid is None:
        raise InvalidSite("band maps act on single-variable grid complexes")
    g, site = c.grid, choice.site
    # U multiplies the generators containing the distinguished point exactly
    # when the markings sit on the main diagonal
    u_when_contains = site_diagonal(g, site) == "main"
    p_col, p_row = (site.col + 1) % g.n, (site.row + 1) % g.n
    tgt = _restacked(build_gc_prime(apply_switch(g, site), g.n), c.tensor_stack)
    labels, gradings, tgt_gradings = c.basis.labels(), c.basis.gradings(), tgt.basis.gradings()
    position = {lab: i for i, lab in enumerate(tgt.basis.labels())}
    targets = [position[lab] for lab in labels]
    ks = [(lab[p_col] == p_row) == u_when_contains for lab in labels]
    degrees = [tgt_gradings[i] - 2 * k - g for i, k, g in zip(targets, ks, gradings)]
    parts = {d: [1 << i if e == d else 0 for i, e in zip(targets, degrees)] for d in set(degrees)}
    return ChainMap(c, tgt, parts)


def _require_band_chain_map(f: ChainMap, site: SwitchSite) -> None:
    """Raise ChainMapViolation naming the site and the first generator, by
    state, where f does not commute with the boundaries.  Both sides list
    their terms by label, so a message does not depend on how boundary
    rows are stored."""
    defect = chain_defect(f)
    if defect is not None:
        x, lhs, rhs = defect
        raise ChainMapViolation(
            f"band map at col={site.col + 1} row={site.row + 1} "
            f"letter={site.letter}: boundaries disagree at generator {x}: "
            f"d(f(x))={dict(sorted(lhs.items()))} but f(d(x))={dict(sorted(rhs.items()))}"
        )


def band_map(c: MonomialComplex, choice: BandMapChoice) -> ChainMap:
    """Chain map of a band move (switch); fails loudly if the U-placement
    rule does not commute with the boundaries."""
    f = band_map_raw(c, choice)
    _require_band_chain_map(f, choice.site)
    return f


# ---------------------------------------------------------------------------
# stabilization maps


def _include(c: MonomialComplex, stab: QuasiStab | DiskStab) -> ChainMap:
    """x tensor w -> x tensor w plus, into c tensored with the move's module."""
    tgt = _restacked(c, c.tensor_stack + (stab,))
    return ChainMap(c, tgt, identity_chain_map(c).parts, {w: w + (0,) for w in _words(c.tensor_stack)})


def _project(c: MonomialComplex, keep: int) -> ChainMap:
    """Project c onto its stack minus the top move: x tensor w keep -> x
    tensor w, of degree the kept tag's shift; the other tag dies."""
    tgt = _restacked(c, c.tensor_stack[:-1])
    words = {w + (keep,): w for w in _words(tgt.tensor_stack)}
    return ChainMap(c, tgt, {keep * c.tensor_stack[-1].gap: identity_chain_map(c).parts[0]}, words)


def quasi_stab_map(c: MonomialComplex, anchor: int) -> ChainMap:
    """x -> x tensor plus into c tensor V."""
    if c.grid is None or not 0 <= anchor < 2 * c.grid.n:
        raise AnchorMismatch(f"anchor {anchor} is not a marking of the base grid")
    return _include(c, QuasiStab(anchor))


def quasi_destab_map(c: MonomialComplex, anchor: int) -> ChainMap:
    """Project c tensor V back to c.

    At the stabilization's own anchor: plus -> 0, minus -> x.  At an anchor
    adjacent along the link (the nearest same-letter marking, two steps away
    in the alternating marking cycle), the roles swap: plus -> x, minus -> 0.
    """
    top = c.tensor_stack[-1] if c.tensor_stack else None
    if not isinstance(top, QuasiStab):
        raise AnchorMismatch("complex is not a quasi-stabilization target")
    if anchor == top.anchor:
        return _project(c, keep=1)
    if anchor in same_letter_neighbors(c.grid, top.anchor):
        return _project(c, keep=0)
    name = c.grid.marking_name
    raise AnchorMismatch(
        f"destabilization anchor {name(anchor)} is neither the stabilization "
        f"anchor {name(top.anchor)} nor adjacent to it along the link"
    )


def disk_stab_map(c: MonomialComplex) -> ChainMap:
    """x -> x tensor plus into c tensor W (a split two-basepoint unknot)."""
    return _include(c, DiskStab())


def disk_destab_map(c: MonomialComplex) -> ChainMap:
    """Project c tensor W back to c: plus -> 0, minus -> x."""
    if c.tensor_stack[-1:] != (DiskStab(),):
        raise MoveSequenceInvalid("complex is not a disk-stabilization target")
    return _project(c, keep=1)


# ---------------------------------------------------------------------------
# renumbering


def renumber_map(c: MonomialComplex, perm) -> ChainMap:
    """Relabel marking variables: on a single-variable complex every marking
    is already U, so this is the identity onto the same complex."""
    if c.masks is not None:
        raise MoveSequenceInvalid("renumbering acts on single-variable complexes")
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(c.marking_count)):
        raise BadPermutation(
            f"{tuple(p + 1 for p in perm)} is not a permutation of 1..{c.marking_count}"
        )
    return identity_chain_map(c)


# ---------------------------------------------------------------------------
# movies


@dataclass(eq=False)
class MovieResult:
    """The composed chain map of a movie, its doubled grading shift and its
    matrix on homology.

    `degree` is the sum of the moves' `chain_map_degree`s, or the degree of
    the composite when some move has none.  The movie ends on `total.tgt`.
    When both ends have one graded basis and one stack (`_ends`),
    `src_presentation` and `tgt_presentation` are one and the same object:
    the basis fixes a grid complex's boundary, since which rectangles are
    empty depends on the states alone and the gradings fix each exponent.
    That holds for every movie that returns to its start grid with no
    stabilization left.
    """

    total: ChainMap
    degree: int | None
    induced: list[list[PolyF2U]]
    src_presentation: HomologyPresentation
    tgt_presentation: HomologyPresentation


def move_map(c: MonomialComplex, move) -> ChainMap:
    """The chain map of one movie move applied to the running complex."""
    if isinstance(move, BandMapChoice):
        return band_map(c, move)
    if isinstance(move, QuasiStab):
        return quasi_stab_map(c, move.anchor)
    if isinstance(move, QuasiDestab):
        return quasi_destab_map(c, move.anchor)
    if isinstance(move, DiskStab):
        return disk_stab_map(c)
    if isinstance(move, DiskDestab):
        return disk_destab_map(c)
    if isinstance(move, Renumber):
        return renumber_map(c, move.perm)
    raise MoveSequenceInvalid(f"unknown move {move!r}")


def _composed(movie: Movie, cap: int) -> tuple[ChainMap, int | None]:
    """The moves composed in order, from the start grid's complex, and the
    degree of `MovieResult`."""
    total = identity_chain_map(build_gc_prime(movie.start, cap))
    degrees = []
    for move in movie.moves:
        f = move_map(total.tgt, move)
        degrees.append(chain_map_degree(f))
        total = compose_chain_maps(f, total)
    return total, chain_map_degree(total) if None in degrees else sum(degrees)


def compose_movie(movie: Movie, cap: int = DEFAULT_STATE_CAP) -> MovieResult:
    """Compose the moves in order and compute the induced map on homology."""
    total, degree = _composed(movie, cap)
    src = total.src
    src_pres = present_homology(src)
    tgt_pres = src_pres if _ends(total.tgt) == _ends(src) else present_homology(total.tgt)
    matrix = induced_map(total, src_pres, tgt_pres)
    return MovieResult(total, degree, matrix, src_pres, tgt_pres)


def verify_commutation(
    g: GridDiagram,
    site1: SwitchSite,
    site2: SwitchSite,
    cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """True iff the band maps of two disjoint sites commute on homology:
    the two orders, composed as movies, induce one matrix.  Both start on
    g's complex, and the second order's last band map finds the first's
    target build alive, so the second order's matrix is read on the
    first movie's presentations of both ends.  A band map that is not a
    chain map raises, the first order's first."""
    n = g.n
    rows1 = {site1.row, (site1.row + 1) % n}
    cols1 = {site1.col, (site1.col + 1) % n}
    rows2 = {site2.row, (site2.row + 1) % n}
    cols2 = {site2.col, (site2.col + 1) % n}
    if rows1 & rows2 or cols1 & cols2:
        raise SitesNotDisjoint(
            f"blocks ({site1.col + 1},{site1.row + 1}) and ({site2.col + 1},{site2.row + 1}) "
            "share a row or column"
        )
    a = compose_movie(Movie(g, (BandMapChoice(site1), BandMapChoice(site2))), cap)
    b, _ = _composed(Movie(g, (BandMapChoice(site2), BandMapChoice(site1))), cap)
    if a.total.tgt.grid != b.tgt.grid:
        raise BrokenInvariant("disjoint switches led to different grids")
    return a.induced == induced_map(b, a.src_presentation, a.tgt_presentation)


# ---------------------------------------------------------------------------
# movie script format

_ANCHOR_RE = re.compile(r"^([OX])([0-9]+)$")


def _parse_anchor(token: str, n: int, lineno: int) -> int:
    m = _ANCHOR_RE.match(token)
    try:
        row = int(m.group(2)) - 1 if m else -1
    except ValueError:  # more digits than int() converts
        row = -1
    if not 0 <= row < n:
        raise ParseError(
            f"line {lineno}: anchor {token!r} is not O<row> or X<row> with row in 1..{n}"
        )
    return row if m.group(1) == "O" else n + row


# Each keyword's key=value fields, all of them required.
_FIELDS: dict[str, tuple[str, ...]] = {
    "switch": ("col", "row", "letter", "flavor", "dir"),
    "quasistab": ("anchor",),
    "quasidestab": ("anchor",),
    "diskstab": (),
    "diskdestab": (),
}
_DIRECTIONS = {"fwd": "forward", "inv": "inverse"}


def _kv_fields(kind: str, tokens: list[str], lineno: int) -> dict[str, str]:
    """The fields of a `kind` line."""
    spec = _FIELDS[kind]
    if tokens and not spec:
        raise ParseError(f"line {lineno}: {kind} takes no arguments")
    out = {}
    for tok in tokens:
        k, eq, v = tok.partition("=")
        if not eq:
            raise ParseError(f"line {lineno}: expected key=value, got {tok!r}")
        if k in out:
            raise ParseError(f"line {lineno}: duplicate field {k!r}")
        if k not in spec:
            raise ParseError(f"line {lineno}: {kind} has no field {k!r}")
        out[k] = v
    missing = sorted(k for k in spec if k not in out)
    if missing:
        raise ParseError(f"line {lineno}: {kind} is missing {missing}")
    return out


def _move(kind: str, fields: dict[str, str], n: int, lineno: int):
    """The move of a `kind` line; a switch names its one flavor, nu."""
    if kind == "switch":
        try:
            col, row = int(fields["col"]) - 1, int(fields["row"]) - 1
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer col/row") from exc
        if not (0 <= col < n and 0 <= row < n):
            raise ParseError(f"line {lineno}: col/row outside 1..{n}")
        if fields["letter"] not in ("O", "X"):
            raise ParseError(f"line {lineno}: letter must be O or X")
        if fields["dir"] not in _DIRECTIONS:
            raise ParseError(f"line {lineno}: dir must be fwd or inv")
        if fields["flavor"] != "nu":
            raise ParseError(f"line {lineno}: flavor must be nu")
        site = SwitchSite(col, row, fields["letter"])
        return BandMapChoice(site, _DIRECTIONS[fields["dir"]])
    if kind == "quasistab":
        return QuasiStab(_parse_anchor(fields["anchor"], n, lineno))
    if kind == "quasidestab":
        return QuasiDestab(_parse_anchor(fields["anchor"], n, lineno))
    return DiskStab() if kind == "diskstab" else DiskDestab()


def parse_movie(text: str, start: GridDiagram) -> Movie:
    """Parse the line-based movie script format against a starting grid.

    Columns, rows, anchors, and renumbering entries are 1-indexed in files.
    """
    n = start.n
    moves: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *args = line.split()
        if kind == "renumber":
            try:
                perm = tuple(int(tok) - 1 for tok in args)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer renumber entry") from exc
            if sorted(perm) != list(range(len(perm))):
                raise ParseError(f"line {lineno}: renumber is not a permutation")
            moves.append(Renumber(perm))
        elif kind in _FIELDS:
            moves.append(_move(kind, _kv_fields(kind, args, lineno), n, lineno))
        else:
            raise ParseError(f"line {lineno}: unknown move {kind!r}")
    return Movie(start, tuple(moves))


def serialize_movie(movie: Movie) -> str:
    name = movie.start.marking_name
    lines = []
    for move in movie.moves:
        if isinstance(move, BandMapChoice):
            d = "fwd" if move.direction == "forward" else "inv"
            lines.append(
                f"switch col={move.site.col + 1} row={move.site.row + 1} "
                f"letter={move.site.letter} flavor=nu dir={d}"
            )
        elif isinstance(move, QuasiStab):
            lines.append(f"quasistab anchor={name(move.anchor)}")
        elif isinstance(move, QuasiDestab):
            lines.append(f"quasidestab anchor={name(move.anchor)}")
        elif isinstance(move, DiskStab):
            lines.append("diskstab")
        elif isinstance(move, DiskDestab):
            lines.append("diskdestab")
        elif isinstance(move, Renumber):
            lines.append("renumber " + " ".join(str(p + 1) for p in move.perm))
        else:
            raise MoveSequenceInvalid(f"unknown move {move!r}")
    return "\n".join(lines) + ("\n" if lines else "")
