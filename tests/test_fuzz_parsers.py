"""Hypothesis fuzzing of the grid and movie parsers.

Any input either parses or raises ParseError, and serializing then parsing
gives back exactly what was serialized.
"""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfloer import (
    BandMapChoice,
    DiskDestab,
    DiskStab,
    Movie,
    ParseError,
    QuasiDestab,
    QuasiStab,
    Renumber,
    apply_switch,
    corpus_grid,
    find_switch_sites,
    parse_grid,
    parse_movie,
    random_grid,
    same_letter_neighbors,
    serialize_grid,
    serialize_movie,
)

FUZZ = settings(max_examples=200, derandomize=True, deadline=None)
ROUND_TRIP = settings(max_examples=60, derandomize=True, deadline=None)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=9)
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)
# objects with the grid keys and near-integer values, so the checks past the
# key test are reached
near_ints = (
    st.integers(min_value=-1, max_value=4)
    | st.floats()
    | st.booleans()
    | st.text(max_size=2)
)
grid_objects = st.fixed_dictionaries(
    {
        "n": near_ints | json_values,
        "o": st.lists(near_ints, max_size=4) | json_values,
        "x": st.lists(near_ints, max_size=4) | json_values,
    }
)

# valid grids with some values swapped for look-alikes (1.0, 1.5, True, "1")
_look_alikes = st.sampled_from(
    [lambda v: v, float, lambda v: v + 0.5, str, lambda v: bool(v) if v in (0, 1) else v]
)


@st.composite
def disguised_grids(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    g = random_grid(n, draw(st.randoms(use_true_random=False)))
    o, x = ([draw(_look_alikes)(v) for v in seq] for seq in (g.o_col, g.x_col))
    return {"n": draw(_look_alikes)(n), "o": o, "x": x}


def _lines(tokens):
    line = st.lists(tokens, max_size=7).map(" ".join)
    return st.lists(line, max_size=6).map("\n".join)


grid_tokens = st.sampled_from(
    ["n", "O", "X", "=", "#", "{", "0", "1", "2", "3", "4", "-1", "2.5", "two"]
) | st.text(max_size=4)
movie_tokens = st.sampled_from(
    [
        "switch", "quasistab", "quasidestab", "diskstab", "diskdestab",
        "renumber", "#", "col=1", "row=2", "col=9", "row=x", "letter=O",
        "letter=Z", "flavor=nu", "flavor=nu_tilde", "dir=fwd", "dir=inv",
        "anchor=O1", "anchor=X4", "anchor=O0", "side=alpha", "side=up",
        "=", "1", "2", "3", "4", "-1",
    ]
) | st.text(max_size=6)


def _parses_or_refuses(parse, *args):
    """The parsed value, or None on ParseError; anything else propagates."""
    try:
        return parse(*args)
    except ParseError:
        return None


class TestArbitraryInput:
    @FUZZ
    @given(json_values | grid_objects | disguised_grids())
    def test_json_grid(self, value):
        g = _parses_or_refuses(parse_grid, json.dumps(value))
        if g is not None:
            # accepted values come back exactly: nothing truncated or coerced
            fields = [value["n"], value["o"], value["x"]]
            assert json.dumps(fields) == json.dumps([g.n, list(g.o_col), list(g.x_col)])

    @FUZZ
    @given(_lines(grid_tokens))
    def test_grid_text(self, text):
        _parses_or_refuses(parse_grid, text)

    @FUZZ
    @given(_lines(movie_tokens))
    def test_movie_text(self, text):
        _parses_or_refuses(parse_movie, text, corpus_grid("unknot4_sites"))

    def test_overlong_input(self):
        digits = "1" * 5000  # more digits than int() converts
        for text in (
            '{"n": ' + digits + "}",
            '{"n": ' + "[" * 100_000,  # deeper than the JSON decoder recurses
            f"n = {digits}\nO = 1 2\nX = 2 1\n",
        ):
            with pytest.raises(ParseError):
                parse_grid(text)
        with pytest.raises(ParseError):
            parse_movie(f"quasistab anchor=O{digits}\n", corpus_grid("unknot2"))


@st.composite
def legal_movies(draw):
    """A start grid and moves that are legal in sequence: switches at sites of
    the running grid, destabilizations only of the top stabilization, and
    renumberings of the running marking count."""
    n = draw(st.integers(min_value=2, max_value=6))
    start = random_grid(n, draw(st.randoms(use_true_random=False)))
    grid, stack, moves = start, [], []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kinds = ["quasistab", "diskstab", "renumber"]
        if find_switch_sites(grid):
            kinds.append("switch")
        if stack:
            kinds.append("destab")
        kind = draw(st.sampled_from(kinds))
        if kind == "switch":
            site = draw(st.sampled_from(find_switch_sites(grid)))
            flavor = draw(st.sampled_from(["nu", "nu_tilde"]))
            direction = draw(st.sampled_from(["forward", "inverse"]))
            moves.append(BandMapChoice(site, flavor, direction))
            grid = apply_switch(grid, site)
        elif kind == "quasistab":
            anchor = draw(st.integers(min_value=0, max_value=2 * n - 1))
            moves.append(QuasiStab(anchor))
            stack.append(anchor)
        elif kind == "diskstab":
            moves.append(DiskStab())
            stack.append(None)
        elif kind == "destab":
            top = stack.pop()
            if top is None:
                moves.append(DiskDestab())
            else:
                anchors = [top, *same_letter_neighbors(grid, top)]
                moves.append(QuasiDestab(draw(st.sampled_from(anchors))))
        else:
            count = 2 * n + 2 * len(stack)
            moves.append(Renumber(tuple(draw(st.permutations(range(count))))))
    return Movie(start, tuple(moves))


class TestRoundTrip:
    @ROUND_TRIP
    @given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
    def test_grid(self, n, rng):
        g = random_grid(n, rng)
        assert parse_grid(serialize_grid(g)) == g
        assert parse_grid(json.dumps({"n": n, "o": list(g.o_col), "x": list(g.x_col)})) == g

    @ROUND_TRIP
    @given(legal_movies())
    def test_movie(self, movie):
        assert parse_movie(serialize_movie(movie), movie.start) == movie
