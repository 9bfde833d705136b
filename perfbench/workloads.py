"""Seeded inputs, operations and output checks of the benchmark workloads.

Every input is generated from the run's seed and written as a grid or movie
file, so the program only ever receives files.  An operation goes through a
public entry point: ``gridfloer.cli.main(argv)`` with ``--json`` and stdout
captured, or a public library function where the CLI has no such command.
The check of an operation runs after its timer stops.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1711
HOLDOUT_SEED = 7110  # never used while writing a change; check claims on it

# Inputs written per run.  A run stops when they are used up, so no input is
# repeated and a complex cache keyed by grid has nothing to hit; at 20 s a
# run uses about 30 movies or 12 n = 7 grids today.  Each input file costs
# set-up time, and file creation is the noisiest part of set-up, so the
# stream is no longer than a run at twice today's speed needs.
STREAM_LENGTH = 64


@dataclass(frozen=True)
class Workload:
    name: str
    size: int       # grid size n of the generated inputs
    fixed_ops: int  # length of the fixed list that wall_s times


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("homology-n7", 7, 10),
        Workload("band-relations", 0, 2),
        Workload("movie", 6, 20),
        Workload("curvature-n6", 6, 20),
    )
}

# Smoke sizes for the self-check: the same code paths on small grids.
SMOKE_SIZES = {"homology-n7": 5, "band-relations": 0, "movie": 5, "curvature-n6": 4}

# Layers that run on each workload.  The self-check fails when one of these
# has no calls in a traced smoke run, so a layer that stops being wrapped
# (say, because the program reaches it through a new name) cannot vanish
# from the trace unnoticed.
_BUILD = ("complexes.build_gc_prime", "complexes.delta_grading", "grids.link_topology")
TRACED_LAYERS = {
    "homology-n7": ("cli.main", *_BUILD, "algebra.homology",
                    "algebra.boundary_squares_to_zero"),
    "band-relations": ("cli.main", *_BUILD, "cobordism.band_map",
                       "algebra.compose_chain_maps", "algebra.chain_maps_equal"),
    "movie": ("cli.main", *_BUILD, "algebra.present_homology", "algebra.is_chain_map",
              "algebra.induced_map", "cobordism.band_map", "cobordism.quasi_stab_map",
              "cobordism.quasi_destab_map", "cobordism.compose_movie"),
    "curvature-n6": ("complexes.verify_curvature", "complexes.build_complex",
                     "algebra.boundary_squared", "complexes.delta_grading",
                     "grids.link_topology"),
}


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


def random_grid_cols(n: int, rng: random.Random) -> tuple[list[int], list[int]]:
    """Two random column permutations with no row holding both markings."""
    o = rng.sample(range(n), n)
    while True:
        x = rng.sample(range(n), n)
        if all(a != b for a, b in zip(o, x)):
            return o, x


def grid_text(o: list[int], x: list[int]) -> str:
    cols = lambda seq: " ".join(str(c + 1) for c in seq)  # noqa: E731
    return f"n = {len(o)}\nO = {cols(o)}\nX = {cols(x)}\n"


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns the exit code and captured stdout."""
    from gridfloer import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _cli_json(result) -> tuple[dict | None, str | None]:
    rc, out = result
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


# ---------------------------------------------------------------------------
# homology-n7


def _homology_ops(w, seed, workdir, corrupt, reference):
    rng = random.Random(seed)
    n = w.size
    expected_free = 2 ** (n - 1) + (1 if corrupt else 0)
    ops = []
    for i in range(STREAM_LENGTH):
        text = grid_text(*random_grid_cols(n, rng))
        path = _write(os.path.join(workdir, f"g{i:04d}.grid"), text)
        ref = reference.get(text)

        def check(result, ref=ref):
            doc, err = _cli_json(result)
            if err:
                return err
            if doc["n"] != n or doc["generators"] != math.factorial(n):
                return f"size {doc['n']} with {doc['generators']} generators"
            free = sum(row["free_rank"] for row in doc["homology"])
            if free != expected_free:
                return f"total free rank {free}, expected {expected_free}"
            if ref is not None and doc["homology"] != ref:
                return "summary differs from the recorded reference"
            return None

        ops.append(Op(path, lambda p=path: run_cli(["--json", "homology", p]), check))
    return ops


# ---------------------------------------------------------------------------
# band-relations


def _band_relations_ops(w, seed, workdir, corrupt, reference):
    # The bundled corpus is the input: the seed does not change this workload.
    def check(result):
        doc, err = _cli_json(result)
        if err:
            return err
        checks = doc.get("checks", [])
        ok = doc.get("passed") is True and bool(checks) and all(c["passed"] for c in checks)
        if ok == corrupt:
            return f"suite passed={doc.get('passed')} over {len(checks)} checks"
        return None

    argv = ["--json", "verify", "band-relations"]
    return [
        Op("verify band-relations", lambda: run_cli(argv), check)
        for _ in range(STREAM_LENGTH)
    ]


# ---------------------------------------------------------------------------
# movie


def _movie_script(n: int, rng: random.Random) -> tuple[str, str] | None:
    """A closed movie `switch s; quasistab a; switch s back; quasidestab b`
    with b a same-letter neighbour of a, or None when the grid has no site."""
    from gridfloer import find_switch_sites, parse_grid, same_letter_neighbors

    text = grid_text(*random_grid_cols(n, rng))
    g = parse_grid(text)
    sites = sorted(find_switch_sites(g), key=lambda s: (s.col, s.row, s.letter))
    if not sites:
        return None
    s = rng.choice(sites)
    anchors = [
        (a, b)
        for a in range(2 * n)
        for b in sorted(set(same_letter_neighbors(g, a)))
        if b != a
    ]
    if not anchors:
        return None
    a, b = rng.choice(anchors)
    name = lambda m: f"O{m + 1}" if m < n else f"X{m - n + 1}"  # noqa: E731
    switch = f"switch col={s.col + 1} row={s.row + 1} letter={s.letter} flavor=nu"
    script = (
        f"{switch} dir=fwd\n"
        f"quasistab anchor={name(a)}\n"
        f"{switch} dir=inv\n"
        f"quasidestab anchor={name(b)}\n"
    )
    return text, script


def check_movie(doc: dict, degree: int) -> str | None:
    """The closed movie is U times the identity on homology."""
    if doc["degree"] != degree:
        return f"degree {doc['degree']}, expected {degree}"
    if doc["source_homology"] != doc["target_homology"]:
        return "source and target homology differ"
    m = doc["induced"]
    for i, row in enumerate(m):
        if len(row) != len(m):
            return "induced matrix is not square"
        for j, e in enumerate(row):
            if e not in (("U", "0") if i == j else ("0",)):
                return f"induced entry ({i}, {j}) is {e}"
    units = sum(1 for i, row in enumerate(m) if row[i] == "U")
    expected = sum(
        row["free_rank"] + sum(1 for k in row["torsion"] if k > 1)
        for row in doc["source_homology"]
    )
    if units != expected:
        return f"{units} diagonal U entries, expected {expected}"
    return None


def _movie_ops(w, seed, workdir, corrupt, reference):
    rng = random.Random(seed)
    degree = -4 if corrupt else -2
    ops = []
    while len(ops) < STREAM_LENGTH:
        made = _movie_script(w.size, rng)
        if made is None:
            continue
        i = len(ops)
        grid = _write(os.path.join(workdir, f"m{i:04d}.grid"), made[0])
        script = _write(os.path.join(workdir, f"m{i:04d}.movie"), made[1])

        def check(result):
            doc, err = _cli_json(result)
            return err or check_movie(doc, degree)

        argv = ["--json", "movie", grid, script]
        ops.append(Op(script, lambda a=argv: run_cli(a), check))
    return ops


# ---------------------------------------------------------------------------
# curvature-n6


def _curvature_ops(w, seed, workdir, corrupt, reference):
    # `verify curvature` covers only corpus grids with n <= 5, so this calls
    # the public function on a parsed grid file.
    from gridfloer import complexes, parse_grid

    rng = random.Random(seed)
    ops = []
    for i in range(STREAM_LENGTH):
        path = _write(
            os.path.join(workdir, f"c{i:04d}.grid"),
            grid_text(*random_grid_cols(w.size, rng)),
        )

        def call(path=path):
            with open(path) as fh:
                g = parse_grid(fh.read())
            return complexes.verify_curvature(g, g.n)

        def check(ok):
            return None if ok is not corrupt else f"verify_curvature returned {ok}"

        ops.append(Op(path, call, check))
    return ops


_BUILDERS = {
    "homology-n7": _homology_ops,
    "band-relations": _band_relations_ops,
    "movie": _movie_ops,
    "curvature-n6": _curvature_ops,
}


def make_ops(
    w: Workload, seed: int, workdir: str, corrupt: bool = False, reference=None
) -> list[Op]:
    """Write the seeded inputs of a workload under `workdir` and return its
    operations in run order.  With `corrupt`, every check expects a wrong
    output, so every operation must be counted as failed."""
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[w.name](w, seed, workdir, corrupt, reference or {})
