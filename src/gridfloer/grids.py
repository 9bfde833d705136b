"""Toroidal grid diagrams: validation, link combinatorics, switch sites.

A grid diagram is an n x n array on the torus with one O and one X marking
in every row and column.  Markings live at cell centers; rows and columns
are indexed 0..n-1 and all block arithmetic wraps mod n.  Error messages
name rows and columns from 1, as grid files and movie scripts do.

Marking ids: the O in row r has id r, the X in row r has id n + r.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    InvalidSite,
    MarkingCollision,
    NonPermutation,
    ParseError,
    SizeTooSmall,
)

MIN_GRID_SIZE = 2


@dataclass(frozen=True)
class GridDiagram:
    """o_col[r] / x_col[r] give the column of the O / X marking in row r."""

    n: int
    o_col: tuple[int, ...]
    x_col: tuple[int, ...]

    def marking_name(self, marking: int) -> str:
        """Human-readable 1-indexed name, O<row> or X<row>."""
        if marking < self.n:
            return f"O{marking + 1}"
        return f"X{marking - self.n + 1}"


@dataclass(frozen=True)
class SwitchSite:
    """A 2x2 block, columns (col, col+1) and rows (row, row+1) mod n, whose
    diagonal holds two markings of one letter."""

    col: int
    row: int
    letter: str  # "O" or "X"


@dataclass(frozen=True)
class LinkTopology:
    component_count: int
    component_of: dict[int, int]
    arcs: tuple[tuple[int, ...], ...]  # marking cycle per component


@dataclass(frozen=True)
class BandClass:
    """Classification of the band realized by a switch."""

    oriented: bool      # component count changes under the switch
    band_type: str      # "I" (both feet on one component) or "II"
    components_after: int  # component count of the switched link


def validate(o_seq, x_seq) -> GridDiagram:
    """Build a GridDiagram from two column sequences, checking all invariants.
    The messages count rows and columns from 1, as grid files do."""
    return _validate(o_seq, x_seq, 1)


def _validate(o_seq, x_seq, base: int) -> GridDiagram:
    """`validate`, its messages counting rows and columns from `base`."""
    o = tuple(int(c) for c in o_seq)
    x = tuple(int(c) for c in x_seq)
    if len(o) != len(x):
        raise NonPermutation(
            f"marking sequences have different lengths {len(o)} and {len(x)}"
        )
    n = len(o)
    if n < MIN_GRID_SIZE:
        raise SizeTooSmall(f"grid size {n} is below the minimum of {MIN_GRID_SIZE}")
    for name, seq in (("O", o), ("X", x)):
        if sorted(seq) != list(range(n)):
            raise NonPermutation(
                f"{name} columns {[c + base for c in seq]} are not a permutation"
                f" of {base}..{n - 1 + base}"
            )
    for r in range(n):
        if o[r] == x[r]:
            raise MarkingCollision(f"row {r + base} holds O and X in the same column {o[r] + base}")
    return GridDiagram(n, o, x)


def link_topology(g: GridDiagram) -> LinkTopology:
    """Trace marking cycles: O -> X within a column, X -> O within a row."""
    n = g.n
    x_row_of_col = {g.x_col[s]: s for s in range(n)}
    succ = {}
    for r in range(n):
        s = x_row_of_col[g.o_col[r]]
        succ[r] = n + s
        succ[n + s] = s
    cycles = []
    seen: set[int] = set()
    for m in range(2 * n):
        if m in seen:
            continue
        cyc = [m]
        seen.add(m)
        cur = succ[m]
        while cur != m:
            cyc.append(cur)
            seen.add(cur)
            cur = succ[cur]
        cycles.append(tuple(cyc))
    comp = {m: i for i, cyc in enumerate(cycles) for m in cyc}
    return LinkTopology(len(cycles), comp, tuple(cycles))


def same_letter_neighbors(g: GridDiagram, marking: int) -> tuple[int, int]:
    """The two same-letter markings nearest to `marking` along its component
    (two steps away in the alternating marking cycle)."""
    topo = link_topology(g)
    for cyc in topo.arcs:
        if marking in cyc:
            i = cyc.index(marking)
            k = len(cyc)
            return (cyc[(i + 2) % k], cyc[(i - 2) % k])
    raise ValueError(f"marking {marking} not found")


def _site_kind(g: GridDiagram, s: SwitchSite) -> str | None:
    """'main' when the block's two `s.letter` markings sit at (col, row) and
    (col+1, row+1), 'anti' when at (col+1, row) and (col, row+1), else None.
    A col or row outside 0..n-1 gives None."""
    n = g.n
    if s.letter not in ("O", "X") or not (0 <= s.col < n and 0 <= s.row < n):
        return None
    cols = g.o_col if s.letter == "O" else g.x_col
    low, high = cols[s.row], cols[(s.row + 1) % n]
    right = (s.col + 1) % n
    if (low, high) == (s.col, right):
        return "main"
    if (low, high) == (right, s.col):
        return "anti"
    return None


def site_diagonal(g: GridDiagram, s: SwitchSite) -> str:
    """'main' when the markings sit at (col,row),(col+1,row+1); else 'anti'.
    Raises InvalidSite when the block holds no such pair."""
    kind = _site_kind(g, s)
    if kind is None:
        raise InvalidSite(f"no {s.letter} diagonal pair in block col={s.col + 1} row={s.row + 1}")
    return kind


def site_markings(g: GridDiagram, s: SwitchSite) -> tuple[int, int]:
    """The two marking ids occupying the site's diagonal."""
    site_diagonal(g, s)  # raises InvalidSite when the block holds no pair
    base = 0 if s.letter == "O" else g.n
    return (base + s.row, base + (s.row + 1) % g.n)


def _switched_sequences(g: GridDiagram, s: SwitchSite) -> tuple[tuple[int, ...], tuple[int, ...]]:
    r0, r1 = s.row, (s.row + 1) % g.n
    o, x = list(g.o_col), list(g.x_col)
    seq = o if s.letter == "O" else x
    seq[r0], seq[r1] = seq[r1], seq[r0]
    return tuple(o), tuple(x)


def apply_switch(g: GridDiagram, s: SwitchSite) -> GridDiagram:
    """Swap the rows of the site's two markings.  Involution at a fixed site."""
    site_diagonal(g, s)  # raises InvalidSite when the block holds no pair
    o2, x2 = _switched_sequences(g, s)
    try:
        return validate(o2, x2)
    except MarkingCollision as exc:
        raise InvalidSite(f"switch at col={s.col + 1} row={s.row + 1} collides markings: {exc}") from exc


def find_switch_sites(g: GridDiagram) -> list[SwitchSite]:
    """All sites whose switch yields a valid grid, ordered (letter, col, row).

    The marking of a site's letter in row `row` sits at column col, with
    the next row's at col + 1 (main diagonal), or at col + 1, with the next
    row's at col (anti-diagonal), so each row of each letter offers two
    candidate blocks, as `_site_kind` reads them.  They are tested on the
    column indices, and the switch on the two rows it swaps, where alone a
    collision can appear; an object is made only for a site."""
    n, out = g.n, []
    for letter, cols, other in (("O", g.o_col, g.x_col), ("X", g.x_col, g.o_col)):
        for row, col in enumerate(cols):
            up = (row + 1) % n
            if other[row] == cols[up] or other[up] == col:  # the swapped rows collide
                continue
            step = (cols[up] - col) % n  # the next row's marking is a column right, or left
            if step == 1:
                out.append(SwitchSite(col, row, letter))
            if step == n - 1:
                out.append(SwitchSite((col - 1) % n, row, letter))
    return sorted(out, key=lambda s: (s.letter, s.col, s.row))


def classify_band(g: GridDiagram, s: SwitchSite, before: LinkTopology | None = None) -> BandClass:
    """Classify the band realized by switching at `s`.

    oriented: the component count changes (compared before/after).
    Type I/II: Type I when the two switched markings lie on one component of
    the pre-switch link (the band's feet close up into a single circuit),
    Type II when they lie on two different components.
    `before` is `link_topology(g)`, for a caller that classifies many sites
    of one grid and traces it once.
    """
    g2 = apply_switch(g, s)  # raises InvalidSite for bad sites
    if before is None:
        before = link_topology(g)
    l_after = link_topology(g2).component_count
    m1, m2 = site_markings(g, s)
    comp = before.component_of
    band_type = "I" if comp[m1] == comp[m2] else "II"
    return BandClass(before.component_count != l_after, band_type, l_after)


def random_grid(n: int, rng) -> GridDiagram:
    """A uniformly sampled valid grid: two random column permutations with no
    row collision, by rejection."""
    if n < MIN_GRID_SIZE:
        raise SizeTooSmall(f"grid size {n} is below the minimum of {MIN_GRID_SIZE}")
    o = rng.sample(range(n), n)
    while True:
        x = rng.sample(range(n), n)
        if all(o[r] != x[r] for r in range(n)):
            return GridDiagram(n, tuple(o), tuple(x))


# -- file format ---------------------------------------------------------------


def parse_grid(text: str) -> GridDiagram:
    """Parse the grid text format, or its JSON equivalent.

    Text format: `n = <int>`, `O = <n 1-indexed columns>`, `X = <same>`,
    with `#` comment lines.  JSON: {"n": ..., "o": [...], "x": [...]} with
    0-indexed columns.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_grid_json(text)
    fields: dict[str, list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        try:
            values = [int(tok) for tok in rhs.split()]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer token in {raw!r}") from exc
        if key not in ("n", "O", "X"):
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ParseError(f"line {lineno}: duplicate `{key}` line")
        if key == "n" and len(values) != 1:
            raise ParseError(f"line {lineno}: `n` takes a single integer")
        fields[key] = values
    if len(fields) != 3:
        raise ParseError("grid file needs `n`, `O`, and `X` lines")
    (n_val,) = fields["n"]
    for key in ("O", "X"):
        if len(fields[key]) != n_val:
            raise ParseError(f"`{key}` has {len(fields[key])} entries, expected n={n_val}")
        bad = [c for c in fields[key] if not 1 <= c <= n_val]
        if bad:
            raise ParseError(f"`{key}` columns {bad} outside 1..{n_val}")
    try:
        return validate(
            [c - 1 for c in fields["O"]],
            [c - 1 for c in fields["X"]],
        )
    except (NonPermutation, MarkingCollision, SizeTooSmall) as exc:
        raise ParseError(f"invalid grid: {exc}") from exc


def _parse_grid_json(text: str) -> GridDiagram:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: bad JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # e.g. an integer too long to convert
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or not {"n", "o", "x"} <= set(obj):
        raise ParseError('JSON grid needs keys "n", "o", "x"')
    # exact ints only: validate() would truncate 1.9, False or "1" silently
    if type(obj["n"]) is not int:
        raise ParseError(f'JSON "n" must be an integer, got {obj["n"]!r:.40}')
    for key in ("o", "x"):
        seq = obj[key]
        if type(seq) is not list or any(type(v) is not int for v in seq):
            raise ParseError(f'JSON "{key}" must be a list of integers, got {seq!r:.40}')
    try:
        g = _validate(obj["o"], obj["x"], 0)  # the file's own 0-based numbers
    except (NonPermutation, MarkingCollision, SizeTooSmall) as exc:
        raise ParseError(f"invalid grid: {exc}") from exc
    if g.n != obj["n"]:
        raise ParseError(f'JSON "n"={obj["n"]} does not match sequence length {g.n}')
    return g


def serialize_grid(g: GridDiagram) -> str:
    o = " ".join(str(c + 1) for c in g.o_col)
    x = " ".join(str(c + 1) for c in g.x_col)
    return f"n = {g.n}\nO = {o}\nX = {x}\n"
