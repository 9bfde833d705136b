"""Golden CLI outputs: `cli.main`'s stdout, stderr and exit code, byte for byte.

The cases print matrices over stacked generators and name the generator
where a band map fails the chain condition, so they pin the order of
generators of equal grading and the generator a `ChainMapViolation` names.
Each case's output is stored in `tests/golden/<case>.json`.  Regenerate
them with `PYTHONPATH=src python tests/test_golden_cli.py` only for an
intended output change, and say which outputs changed and why.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from gridfloer import corpus_text
from gridfloer.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SWITCH = "switch col=1 row=1 letter=O flavor=nu dir=fwd\n"
NU_TILDE = "switch col=1 row=1 letter=O flavor=nu_tilde dir=fwd\n"
SPLIT_SWITCH = "switch col=2 row=2 letter=O flavor=nu dir=fwd\n"

# a closed movie in the benchmark's shape on a 6 x 6 grid
CLOSED_GRID = "n = 6\nO = 4 3 1 6 2 5\nX = 2 5 4 3 6 1\n"
CLOSED_SWITCH = "switch col=3 row=3 letter=X flavor=nu"
CLOSED_MOVIE = (
    f"{CLOSED_SWITCH} dir=fwd\nquasistab anchor=X1\n"
    f"{CLOSED_SWITCH} dir=inv\nquasidestab anchor=X3\n"
)

# stacked ends with torsion: their generators of equal grading interleave
# tag words, and torsion summands are listed by exponent before grading
TREFOIL_STACK = "quasistab anchor=O1\ndiskstab\n" + SWITCH
HOPF_STACK = "diskstab\nquasistab anchor=O1\ndiskstab\n"

# a stack carried across a switch, then destabilized on the switched grid;
# the table form switches back at the end
ACROSS_SWITCH = "quasistab anchor=O1\n" + SWITCH + "quasidestab anchor=O1\n"
SWITCH_BACK = "switch col=1 row=1 letter=O flavor=nu dir=inv\n"

# a closed movie in the benchmark's shape on a corpus grid: band maps on a
# quasi-stabilized complex, composed as columns
TREFOIL_CLOSED = SWITCH + "quasistab anchor=O1\n" + SWITCH_BACK + "quasidestab anchor=O3\n"

# case id -> (flags, grid: corpus name or grid text, movie script)
CASES = {
    "quasi-disk-switch": (["--json"], "unknot4_sites", "quasistab anchor=O1\ndiskstab\n" + SWITCH),
    "disk-disk-switch": (["--json"], "unknot4_sites", "diskstab\ndiskstab\n" + SWITCH),
    "disk-disk-quasi-disk-switch": (
        ["--json"],
        "unknot4_sites",
        "diskstab\ndiskstab\nquasistab anchor=O1\ndiskstab\n" + SWITCH,
    ),
    "split-switch-disk-quasi-switch": (
        ["--json"],
        "split2x2_2x2",
        SPLIT_SWITCH + "diskstab\nquasistab anchor=O1\n" + SPLIT_SWITCH,
    ),
    "violation-trefoil5": ([], "trefoil5", NU_TILDE),
    "violation-trefoil5-quasi": ([], "trefoil5", "quasistab anchor=O1\n" + NU_TILDE),
    "violation-unknot4-disk-disk": ([], "unknot4_sites", "diskstab\ndiskstab\n" + NU_TILDE),
    "closed-n6-table": ([], CLOSED_GRID, CLOSED_MOVIE),
    "trefoil5-quasi-disk-switch": (["--json"], "trefoil5", TREFOIL_STACK),
    "trefoil5-quasi-disk-switch-table": ([], "trefoil5", TREFOIL_STACK),
    "hopf4-disk-quasi-disk": (["--json"], "hopf4", HOPF_STACK),
    "hopf4-disk-quasi-disk-table": ([], "hopf4", HOPF_STACK),
    "trefoil5-quasi-switch-quasidestab": (["--json"], "trefoil5", ACROSS_SWITCH),
    "trefoil5-quasi-switch-quasidestab-back-table": ([], "trefoil5", ACROSS_SWITCH + SWITCH_BACK),
    "trefoil5-switch-quasi-switch-quasidestab": (["--json"], "trefoil5", TREFOIL_CLOSED),
}


def run_case(case: str, workdir: Path) -> dict:
    flags, grid, script = CASES[case]
    grid_path, movie_path = workdir / f"{case}.grid", workdir / f"{case}.movie"
    grid_path.write_text(grid if "\n" in grid else corpus_text(grid))
    movie_path.write_text(script)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(flags + ["movie", str(grid_path), str(movie_path)])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit_code": code}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_golden(case, tmp_path):
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    assert run_case(case, tmp_path) == want


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            result = run_case(case, Path(tmp))
            (GOLDEN / f"{case}.json").write_text(json.dumps(result, indent=1) + "\n")
            print(case, result["exit_code"])
