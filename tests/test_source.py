"""Rules on the package source itself."""
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridfloer"

# module-level functions, methods and properties that no command reaches,
# each kept for a reason; a complex built by hand in a test is made in
# tests/oracles.py, not here
UNREACHED = {
    # the movie half of a failing check's reproducer, which no check in
    # the bundled suites fails
    ("cobordism.py", "serialize_movie"),
    ("cli.py", "_reproducer"),
    # the label-keyed boundary of a complex stored as masks, each entry a
    # frozenset of monomial codes, made when its `boundary` is read; no
    # command reads it, only tests (through the oracles' `vector`) and
    # perfbench's tracer, which counts its entries after `build_complex`
    # (ROADMAP item 6: it leaves with `build_complex`, after item 2)
    ("complexes.py", "_mask_boundary"),
    # the public direct d^2 check, one product per column: perfbench's
    # tracer names it and probes each complex with it, and acceptance
    # criterion 01 checks the corpus and seeded grids with it
    ("algebra.py", "boundary_squares_to_zero"),
    # names the failing path when `_reduce`'s certificate finds d^2 != 0,
    # which no bundled grid triggers
    ("algebra.py", "_check_squares_to_zero"),
    # compares two maps on homology: the oracle of `verify_commutation`'s
    # tests, and the comparison that ROADMAP item 10's movie relations use
    ("algebra.py", "maps_equal_on_homology"),
    # the label-keyed terms that `chain_defect` lists at the first failing
    # generator, also read by `ChainMap.entries` and
    # `MonomialComplex.boundary`: no bundled command makes a map that is
    # not a chain map, and the tests make one with the fault map
    # `oracles.complement_band_map`
    ("algebra.py", "ChainMap.shift"),
    ("algebra.py", "_label_rows"),
    ("algebra.py", "_label_view"),
    # read by perfbench's tracer, which counts boundary entries and pivots,
    # and by tests; the oracles read `boundary` too
    ("algebra.py", "MonomialComplex.boundary"),
    ("algebra.py", "GradedModuleSummary.total_free"),
    # the polynomial arithmetic, label-keyed map entries and basis gradings
    # that tests/oracles.py computes with
    ("algebra.py", "PolyF2U.__bool__"),
    ("algebra.py", "PolyF2U.__mul__"),
    ("algebra.py", "PolyF2U.shifted"),
    ("algebra.py", "PolyF2U.is_monomial"),
    ("algebra.py", "PolyF2U.degree"),
    ("algebra.py", "GradedBasis.to_dict"),
    ("algebra.py", "ChainMap.entries"),
    # read by tests only: polynomials and summaries written and compared
    # by hand, and a complex's entries listed by label
    ("algebra.py", "PolyF2U.from_terms"),
    ("algebra.py", "GradedModuleSummary.to_dict"),
    ("algebra.py", "GradedModuleSummary.torsion_multiset"),
    ("algebra.py", "MonomialComplex.entries"),
}

SWITCH = "switch col=1 row=1 letter=O flavor=nu dir=fwd\n"
# (flags, corpus grid, movie script, exit code)
MOVIES = [
    ([], "unknot4_sites", SWITCH + "quasistab anchor=O2\nquasidestab anchor=O2\n"
     "diskstab\ndiskdestab\nrenumber 2 3 1 4 5 6 7 8\n", 0),
    (["--json"], "trefoil5", "quasistab anchor=O1\n" + SWITCH + "quasidestab anchor=O1\n", 0),
    ([], "trefoil5", SWITCH.replace("flavor=nu", "flavor=nu_tilde"), 2),  # ParseError: one flavor
    ([], "trefoil5", "switch col=2 row=1 letter=O flavor=nu dir=fwd\n", 1),  # InvalidSite
    ([], "trefoil5", "quasidestab anchor=O1\n", 4),  # AnchorMismatch
    ([], "trefoil5", "diskdestab\n", 4),  # MoveSequenceInvalid
    ([], "trefoil5", "renumber 2 1\n", 4),  # BadPermutation
    ([], "trefoil5", "flip\n", 2),  # ParseError
    (["--cap", "4"], "trefoil5", "", 3),  # CapExceeded
]


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check in the package
    # raises a typed error instead; so does every check of the oracles,
    # which pytest does not rewrite as it does test modules
    sources = sorted(SRC.rglob("*.py")) + [ROOT / "tests" / "oracles.py"]
    assert len(sources) > 1, f"no sources under {SRC}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _module_functions() -> dict:
    """(file, first line) -> (file name, name) for every module-level
    function of the package and every method and property of its classes,
    named `Class.method`.  A code object's first line is its first
    decorator's line, so that is the line taken."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            in_class = isinstance(node, ast.ClassDef)
            prefix = f"{node.name}." if in_class else ""
            for d in node.body if in_class else [node]:
                if isinstance(d, ast.FunctionDef):
                    first = min([d.lineno] + [dec.lineno for dec in d.decorator_list])
                    out[str(path.resolve()), first] = (path.name, prefix + d.name)
    return out


def _runs(workdir: Path):
    """(argv, exit code) of every CLI run: each command on the corpus, the
    movie list, and each error exit."""
    from gridfloer import corpus_grids, corpus_text
    from gridfloer.cli import SUITES

    def grid_file(name):
        path = workdir / f"{name}.grid"
        path.write_text(corpus_text(name))
        return str(path)

    for name in corpus_grids():
        path = grid_file(name)
        yield ["--json", "homology", path], 0
        yield ["--json", "sites", path], 0
    trefoil = grid_file("trefoil5")
    yield ["homology", trefoil], 0
    yield ["sites", trefoil], 0
    json_grid = workdir / "trefoil5.json"
    json_grid.write_text(json.dumps({"n": 5, "o": [0, 1, 2, 3, 4], "x": [2, 3, 4, 0, 1]}))
    yield ["--json", "homology", str(json_grid)], 0
    for suite in SUITES:
        yield ["--json", "verify", suite], 0
    yield ["verify", "curvature"], 0
    yield ["verify", "no-such-suite"], 5
    for i, (flags, name, script, code) in enumerate(MOVIES):
        movie = workdir / f"movie{i}.txt"
        movie.write_text(script)
        yield [*flags, "movie", grid_file(name), str(movie)], code
    bad = workdir / "bad.grid"
    bad.write_text("n = 2\nO = 1 2\n")
    yield ["homology", str(bad)], 2
    yield ["homology", str(workdir / "missing.grid")], 1  # OSError
    yield ["--cap", "1", "homology", trefoil], 1  # ValueError


def _reached(workdir: Path) -> list:
    """Every run of `_runs`, under a profiler that records the code objects
    called; returns the failed runs and the (file, first line) of each code
    object."""
    from gridfloer.cli import main

    failed, codes = [], set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv, want in _runs(workdir):
                if main(argv) != want:
                    failed.append(argv)
    finally:
        sys.setprofile(None)
    files = {str(path.resolve()) for path in SRC.rglob("*.py")}
    lines = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}
    return failed, sorted(line for line in lines if line[0] in files)


def test_every_module_function_is_reached(tmp_path):
    # in a fresh interpreter, so that no cache of an earlier test hides a call
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    failed, reached = json.loads(proc.stdout)
    assert failed == []
    functions = _module_functions()
    reached = set(map(tuple, reached))
    unreached = {name for key, name in functions.items() if key not in reached}
    assert unreached == UNREACHED


if __name__ == "__main__":
    print(json.dumps(_reached(Path(sys.argv[1]))))
