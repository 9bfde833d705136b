"""Command-line behavior: outputs, flags, exit codes, verify suites."""
import ast
import contextlib
import dataclasses
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import gridfloer
from gridfloer import (
    NotHomogeneous,
    SitesNotDisjoint,
    SwitchSite,
    cli,
    cobordism,
    complexes,
    corpus_grid,
    corpus_grids,
    corpus_text,
    random_grid,
    serialize_grid,
    verify_commutation,
)
from gridfloer.cli import (
    EXIT_CAP,
    EXIT_FAIL,
    EXIT_MOVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SUITE,
    SUITES,
    main,
)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

U_ROUND_TRIP = (
    "switch col=1 row=1 letter=O flavor=nu dir=fwd\n"
    "switch col=1 row=1 letter=O flavor=nu dir=inv\n"
)

# checks per verify suite, all corpus-derived
SUITE_SIZES = {
    "curvature": 7,
    "grading": 15,
    "band-relations": 43,
    "stab-relations": 59,
    "commutation": 4,
}

# the size of the first grid above 3 that each suite builds, which `--cap 3`
# refuses
FIRST_SIZE_OVER_3 = {
    "curvature": 4,
    "grading": 6,
    "band-relations": 6,
    "stab-relations": 4,
    "commutation": 4,
}


@pytest.fixture
def grid_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.grid"
        path.write_text(corpus_text(name))
        return str(path)

    return write


@pytest.fixture
def movie_file(tmp_path):
    def write(text):
        path = tmp_path / "movie.txt"
        path.write_text(text)
        return str(path)

    return write


class TestSettings:
    def test_defaults(self):
        args = cli._build_parser().parse_args(["verify", "grading"])
        assert (args.cap, args.json, args.seed) == (8, False, 0)

    @pytest.mark.parametrize("cap", ["1", "0"])
    def test_cap_below_two(self, capsys, cap):
        assert main(["--cap", cap, "verify", "grading"]) == EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --cap must be at least 2, got {cap}\n"

    @pytest.mark.parametrize("suite", SUITES)
    def test_cap_reaches_every_suite(self, capsys, suite):
        assert main(["--cap", "3", "verify", suite]) == EXIT_CAP
        size = FIRST_SIZE_OVER_3[suite]
        assert capsys.readouterr().err == f"error: grid size {size} exceeds the state cap 3\n"

    def test_seed_reaches_the_grading_suite(self, monkeypatch, capsys):
        # a passing run prints no grid, so fail the first seeded grid and
        # read it off the reproducer
        corpus = set(corpus_grids().values())

        def failing_off_the_corpus(g, cap):
            if g not in corpus:
                raise NotHomogeneous("seeded grid")
            return complexes.build_gc_prime(g, cap)

        monkeypatch.setattr(cli, "build_gc_prime", failing_off_the_corpus)
        assert main(["--seed", "9", "verify", "grading"]) == EXIT_FAIL
        first = random_grid(5, random.Random(9))
        assert capsys.readouterr().out == (
            "FAIL boundary homogeneity on random5-seed9-0\ngrid:\n" + serialize_grid(first)
        )

    def test_seed_shows_in_a_passing_grading_run(self, capsys):
        # the seeded checks name their seed, in the table and under --json
        for flags in ([], ["--json"]):
            runs = []
            for seed in ("0", "9"):
                assert main([*flags, "--seed", seed, "verify", "grading"]) == EXIT_OK
                runs.append(capsys.readouterr().out)
            assert runs[0] != runs[1]
            assert "random5-seed0-4" in runs[0] and "random5-seed9-4" in runs[1]


class TestHomologyCommand:
    def test_json_output(self, grid_file, capsys):
        assert main(["--json", "homology", grid_file("trefoil5")]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 5 and data["generators"] == 120
        assert data["homology"] == [
            {"grading_doubled": 2, "free_rank": 16, "torsion": [1] * 16}
        ]

    def test_table_matches_json(self, grid_file, capsys):
        path = grid_file("split2x2_2x2")
        main(["homology", path])
        table = capsys.readouterr().out
        main(["--json", "homology", path])
        data = json.loads(capsys.readouterr().out)
        assert f"{data['generators']} generators" in table
        for row in data["homology"]:
            cells = [
                ln.split()
                for ln in table.splitlines()
                if ln.strip().startswith(str(row["grading_doubled"]) + " ")
            ]
            assert [str(row["grading_doubled"]), str(row["free_rank"])] in [
                c[:2] for c in cells
            ]


class TestSitesCommand:
    def test_json_records(self, grid_file, capsys):
        main(["--json", "sites", grid_file("trefoil5")])
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 5 and len(data["sites"]) == 10
        first = data["sites"][0]
        assert first == {
            "col": 1,
            "row": 1,
            "letter": "O",
            "oriented": True,
            "band_type": "I",
            "components_after": 2,
        }

    def test_table_is_one_indexed(self, grid_file, capsys):
        main(["sites", grid_file("unknot4_sites")])
        out = capsys.readouterr().out
        assert "col=1 row=1 letter=O oriented type=I components_after=2" in out
        assert len(out.splitlines()) == 4

    def test_empty_for_siteless_grid(self, grid_file, capsys):
        main(["--json", "sites", grid_file("unknot2")])
        assert json.loads(capsys.readouterr().out)["sites"] == []

    def test_each_switched_grid_is_traced_once(self, grid_file, monkeypatch, capsys):
        # the start grid is traced once for all sites, and classify_band
        # traces each switched grid once, so 4 sites make 5 traces
        calls = []
        real = gridfloer.grids.link_topology

        def counting(g):
            calls.append(g)
            return real(g)

        for name, module in list(sys.modules.items()):
            if name.startswith("gridfloer") and getattr(module, "link_topology", None) is real:
                monkeypatch.setattr(module, "link_topology", counting)
        assert main(["sites", grid_file("unknot4_sites")]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert len(calls) == len(set(calls)) == 5


class TestMovieCommand:
    def test_u_round_trip(self, grid_file, movie_file, capsys):
        code = main(
            ["--json", "movie", grid_file("unknot4_sites"), movie_file(U_ROUND_TRIP)]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["degree"] == -2
        assert data["final_grid"] == {"n": 4, "o": [0, 1, 2, 3], "x": [2, 3, 1, 0]}
        assert data["source_homology"] == data["target_homology"]
        n = len(data["induced"])
        assert n == 8
        for i in range(n):
            for j in range(n):
                assert data["induced"][i][j] == ("U" if i == j else "0")

    def test_stab_destab_zero(self, grid_file, movie_file, capsys):
        script = "quasistab anchor=O1\nquasidestab anchor=O1\n"
        main(["--json", "movie", grid_file("unknot2"), movie_file(script)])
        data = json.loads(capsys.readouterr().out)
        assert data["induced"] == [["0", "0"], ["0", "0"]]
        # the zero composite has no degree of its own; the moves' sum is reported
        assert data["degree"] == 0

    def test_table_output(self, grid_file, movie_file, capsys):
        script = "quasistab anchor=O1\nquasidestab anchor=O2\n"
        main(["movie", grid_file("unknot2"), movie_file(script)])
        out = capsys.readouterr().out
        assert "final diagram:" in out and "n = 2" in out
        assert "total map degree: 0" in out
        assert "induced map" in out


class TestExitCodes:
    def test_parse_error_grid(self, tmp_path, capsys):
        bad = tmp_path / "bad.grid"
        bad.write_text("n = 2\nO = 1 2\n")
        assert main(["homology", str(bad)]) == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    def test_parse_error_movie(self, grid_file, movie_file):
        assert (
            main(["movie", grid_file("unknot2"), movie_file("wobble\n")])
            == EXIT_PARSE
        )

    @pytest.mark.parametrize("kind", ["grid", "movie"])
    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, grid_file, capsys, kind):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"n = 2\n\xff\n")
        argv = ["homology", str(bad)] if kind == "grid" else ["movie", grid_file("unknot2"), str(bad)]
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not UTF-8: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("grid", "n = 2\nO = 1 2\nX = 2 1\n"),
            ("json", '{"n": 2, "o": [0, 1], "x": [1, 0]}'),
            ("movie", "diskstab\ndiskdestab\n"),
        ],
        ids=["grid", "json", "movie"],
    )
    def test_leading_byte_order_mark_is_read_past(self, tmp_path, grid_file, capsys, kind, text):
        # an editor that saves UTF-8 with a byte-order mark changes no field
        bom, plain = tmp_path / "bom.txt", tmp_path / "plain.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        plain.write_text(text)
        head = ["movie", grid_file("unknot2")] if kind == "movie" else ["homology"]
        assert main([*head, str(plain)]) == EXIT_OK
        want = capsys.readouterr()
        assert main([*head, str(bom)]) == EXIT_OK
        assert capsys.readouterr() == want

    def test_unknown_movie_field(self, grid_file, movie_file, capsys):
        script = "quasistab anchor=O1 sid=alpha\n"
        assert main(["movie", grid_file("unknot2"), movie_file(script)]) == EXIT_PARSE
        assert "line 1: quasistab has no field 'sid'" in capsys.readouterr().err

    def test_cap_exceeded(self, grid_file):
        assert main(["--cap", "4", "homology", grid_file("trefoil5")]) == EXIT_CAP

    def test_invalid_move_sequence(self, grid_file, movie_file):
        assert (
            main(["movie", grid_file("unknot2"), movie_file("diskdestab\n")])
            == EXIT_MOVE
        )

    @pytest.mark.parametrize(
        "grid, script, fragment",
        [
            ("unknot2", "quasidestab anchor=O1\n", "not a quasi-stabilization"),
            ("unknot2", "diskstab\nquasidestab anchor=O1\n", "not a quasi-stabilization"),
            # trefoil5: the same-letter neighbors of O1 are O3 and O4
            (
                "trefoil5",
                "quasistab anchor=O1\nquasidestab anchor=O2\n",
                "anchor O2 is neither the stabilization anchor O1 nor adjacent",
            ),
        ],
        ids=["nothing-stacked", "disk-on-top", "non-adjacent"],
    )
    def test_mismatched_destabilization(
        self, grid_file, movie_file, capsys, grid, script, fragment
    ):
        assert main(["movie", grid_file(grid), movie_file(script)]) == EXIT_MOVE
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err

    def test_renumber_of_the_wrong_length(self, grid_file, movie_file, capsys):
        # unknot2 has four markings; the script permutes two
        assert (
            main(["movie", grid_file("unknot2"), movie_file("renumber 2 1\n")])
            == EXIT_MOVE
        )
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_suite(self, capsys):
        assert main(["verify", "everything"]) == EXIT_SUITE
        assert "unknown suite" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["homology", str(tmp_path / "absent.grid")]) == EXIT_FAIL

    def test_chain_violation_is_check_failure(self, grid_file, movie_file):
        script = "switch col=1 row=1 letter=O flavor=nu_tilde dir=fwd\n"
        assert (
            main(["movie", grid_file("unknot4_sites"), movie_file(script)])
            == EXIT_FAIL
        )

    @pytest.mark.parametrize(
        "stack", ["", "quasistab anchor=O1\n"], ids=["states", "stacked"]
    )
    def test_chain_violation_lists_terms_in_label_order(
        self, grid_file, movie_file, capsys, stack
    ):
        script = stack + "switch col=1 row=1 letter=O flavor=nu_tilde dir=fwd\n"
        assert main(["movie", grid_file("trefoil5"), movie_file(script)]) == EXIT_FAIL
        err = capsys.readouterr().err.strip()
        sides = re.search(r"d\(f\(x\)\)=\{(.*)\} but f\(d\(x\)\)=\{(.*)\}$", err).groups()
        for side in sides:
            # keys are tuples, and no value holds a parenthesis
            terms = re.split(r", (?=\()", side)
            labels = [ast.literal_eval(term.rsplit(": ", 1)[0]) for term in terms]
            assert len(labels) == 5 and labels == sorted(labels), side

    def test_bad_config_value(self, grid_file):
        assert main(["--cap", "1", "homology", grid_file("unknot2")]) == EXIT_FAIL

    @pytest.mark.parametrize(
        "grid, script, code, message",
        [
            (
                "n = 3\nO = 1 1 2\nX = 2 3 1\n", None, EXIT_PARSE,
                "invalid grid: O columns [1, 1, 2] are not a permutation of 1..3",
            ),
            (
                "n = 2\nO = 1 2\nX = 1 2\n", None, EXIT_PARSE,
                "invalid grid: row 1 holds O and X in the same column 1",
            ),
            (
                "n = 2\nO = 1 2\nX = 2 1\n", "switch col=2 row=2 letter=X flavor=nu dir=fwd\n", EXIT_FAIL,
                "switch at col=2 row=2 collides markings: row 1 holds O and X in the same column 1",
            ),
            (
                "n = 3\nO = 1 2 3\nX = 2 3 1\n", "switch col=3 row=1 letter=O flavor=nu dir=fwd\n", EXIT_FAIL,
                "no O diagonal pair in block col=3 row=1",
            ),
            (
                corpus_text("trefoil5"), "renumber 2 1\n", EXIT_MOVE,
                "(2, 1) is not a permutation of 1..10",
            ),
        ],
        ids=["non-permutation", "marking-collision", "switch-collision", "no-diagonal-pair",
             "renumber"],
    )
    def test_positions_in_messages_count_from_one(self, tmp_path, capsys, grid, script, code, message):
        # grid files and movie scripts count from 1, so the messages that
        # echo their positions do too
        path = tmp_path / "echo.grid"
        path.write_text(grid)
        argv = ["homology", str(path)]
        if script is not None:
            movie = tmp_path / "echo.movie"
            movie.write_text(script)
            argv = ["movie", str(path), str(movie)]
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_commutation_blocks_count_from_one(self, corpus):
        # named as the commutation suite's labels name its sites
        with pytest.raises(SitesNotDisjoint) as exc:
            verify_commutation(corpus["trefoil5"], SwitchSite(0, 0, "O"), SwitchSite(0, 1, "O"))
        assert str(exc.value) == "blocks (1,1) and (1,2) share a row or column"

    @pytest.mark.parametrize(
        "grid, message",
        [
            (
                {"n": 3, "o": [0, 0, 1], "x": [1, 2, 0]},
                "O columns [0, 0, 1] are not a permutation of 0..2",
            ),
            ({"n": 2, "o": [0, 1], "x": [0, 1]}, "row 0 holds O and X in the same column 0"),
        ],
        ids=["non-permutation", "marking-collision"],
    )
    def test_json_grid_messages_name_its_numbers(self, tmp_path, capsys, grid, message):
        # a JSON grid counts from 0, so its messages do too
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(grid))
        assert main(["homology", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: invalid grid: {message}\n"


class TestVerifySuites:
    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_passes(self, suite, capsys):
        assert main(["--json", "verify", suite]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert len(data["checks"]) == SUITE_SIZES[suite]
        assert all(c["passed"] for c in data["checks"])

    def test_band_relations_build_two_maps_per_site(self, monkeypatch, capsys):
        calls = []
        real = cli.band_map

        def counting(c, choice):
            calls.append(choice)
            return real(c, choice)

        monkeypatch.setattr(cli, "band_map", counting)
        assert main(["verify", "band-relations"]) == EXIT_OK
        capsys.readouterr()
        assert len(calls) == 2 * SUITE_SIZES["band-relations"] == 86

    def test_table_summary_line(self, capsys):
        main(["verify", "curvature"])
        out = capsys.readouterr().out
        assert out.count("ok ") == SUITE_SIZES["curvature"]
        assert "curvature: 7 checks passed" in out

    def test_grading_deterministic_per_seed(self, capsys):
        main(["--json", "--seed", "9", "verify", "grading"])
        first = capsys.readouterr().out
        main(["--json", "--seed", "9", "verify", "grading"])
        assert capsys.readouterr().out == first

    def test_grading_fault_is_a_failed_check(self, monkeypatch, capsys):
        # the build raises NotHomogeneous; the suite reports it with the grid
        g = corpus_grid("trefoil5")
        x0 = next(x for x, _, _ in complexes._build_gc_prime(g).entries())
        grading_part = complexes._grid_grading_part

        def off_at_x0(grid):  # the states through x0's point in column 0 graded 2 higher
            table, const = grading_part(grid)
            table[0][x0[0]] -= 2 if grid == g else 0
            return table, const

        monkeypatch.setattr(complexes, "_grid_grading_part", off_at_x0)
        monkeypatch.setattr(complexes, "_GC_PRIME_ALIVE", weakref.WeakValueDictionary())
        assert main(["verify", "grading"]) == EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.out == (
            "FAIL boundary homogeneity on trefoil5\ngrid:\n" + serialize_grid(g)
        )
        assert captured.err == ""

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_band_map_violation_is_a_failed_check(self, flags, monkeypatch, capsys):
        # a band map that is not a chain map fails its site's check, which
        # carries the grid and the round-trip movie as its reproducer
        real = cobordism.band_map_raw

        def nu_tilde(c, choice):
            return real(c, dataclasses.replace(choice, flavor="nu_tilde"))

        monkeypatch.setattr(cobordism, "band_map_raw", nu_tilde)
        assert main([*flags, "verify", "band-relations"]) == EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.err == ""
        check = "switch compositions equal U on fig8_6 (col=1 row=1 letter=O)"
        reproducer = (
            "grid:\n" + serialize_grid(corpus_grid("fig8_6")) + "movie:\n"
            "switch col=1 row=1 letter=O flavor=nu dir=fwd\n"
            "switch col=1 row=1 letter=O flavor=nu dir=inv\n"
        )
        if flags:
            data = json.loads(captured.out)
            assert data["passed"] is False
            assert data["failed_check"] == check
            assert data["reproducer"] == reproducer
        else:
            assert captured.out == f"FAIL {check}\n" + reproducer

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_commutation_band_map_violation_is_a_failed_check(self, flags, monkeypatch, capsys):
        # a band map that is not a chain map fails its pair's check, which
        # carries the grid and the order composed first as its reproducer
        real = cobordism.band_map_raw

        def nu_tilde(c, choice):
            return real(c, dataclasses.replace(choice, flavor="nu_tilde"))

        monkeypatch.setattr(cobordism, "band_map_raw", nu_tilde)
        assert main([*flags, "verify", "commutation"]) == EXIT_FAIL
        captured = capsys.readouterr()
        assert captured.err == ""
        check = "disjoint switches commute on split2x2_2x2 (2,2)O vs (4,4)O"
        reproducer = (
            "grid:\n" + serialize_grid(corpus_grid("split2x2_2x2")) + "movie:\n"
            "switch col=2 row=2 letter=O flavor=nu dir=fwd\n"
            "switch col=4 row=4 letter=O flavor=nu dir=fwd\n"
        )
        if flags:
            data = json.loads(captured.out)
            assert data["passed"] is False
            assert data["failed_check"] == check
            assert data["reproducer"] == reproducer
        else:
            assert captured.out == f"FAIL {check}\n" + reproducer

    def test_failure_dumps_reproducer(self, corpus, monkeypatch, capsys):
        from gridfloer import Movie

        g = corpus["unknot2"]
        movie = Movie(g, ())

        def doomed(args):
            yield "always red", g, movie, False

        monkeypatch.setitem(cli._SUITE_RUNNERS, "doomed", doomed)
        assert main(["verify", "doomed"]) == EXIT_FAIL
        out = capsys.readouterr().out
        assert "FAIL always red" in out
        assert "grid:\nn = 2" in out and "movie:" in out

    def test_failure_reproducer_json(self, corpus, monkeypatch, capsys):
        g = corpus["unknot2"]

        def doomed(args):
            yield "always red", g, None, False

        monkeypatch.setitem(cli._SUITE_RUNNERS, "doomed", doomed)
        assert main(["--json", "verify", "doomed"]) == EXIT_FAIL
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is False
        assert data["failed_check"] == "always red"
        assert data["reproducer"].startswith("grid:\n")


def _declared_scripts():
    """The `[project.scripts]` table of pyproject.toml, read from the file
    itself: a stale egg-info next to the sources would make
    `importlib.metadata` report an install that is not there. A line read
    of the table needs no `tomllib`, which Python 3.10 lacks."""
    scripts, in_table = {}, False
    for line in PYPROJECT.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            key, value = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[key] = value
    return scripts


def _entry_point_command():
    """The installed `gridfloer` script when one is on PATH; otherwise
    `python -m gridfloer` with the imported package's directory first on
    PYTHONPATH, so the child does not depend on the working directory."""
    env = dict(os.environ)
    exe = shutil.which("gridfloer")
    if exe is not None:
        return [exe], env
    package_root = str(Path(gridfloer.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return [sys.executable, "-m", "gridfloer"], env


def _in_process(argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), with argparse's exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestEntryPoint:
    def test_one_parser_serves_every_call(self, grid_file, monkeypatch):
        # a usage error, a homology and --help in one process answer as
        # each does alone in a fresh process
        monkeypatch.setenv("COLUMNS", "80")
        cmd, env = _entry_point_command()
        calls = [["--cap", "x", "homology", grid_file("unknot3")],
                 ["--json", "homology", grid_file("unknot3")],
                 ["--help"]]
        together = [_in_process(argv) for argv in calls]
        assert cli._build_parser() is cli._build_parser()
        alone = []
        for argv in calls:
            proc = subprocess.run(cmd + argv, capture_output=True, text=True, env=env)
            alone.append((proc.returncode, proc.stdout, proc.stderr))
        assert [code for code, _, _ in together] == [EXIT_PARSE, EXIT_OK, EXIT_OK]
        assert together == alone

    def test_console_script(self, grid_file, tmp_path):
        assert _declared_scripts().get("gridfloer") == "gridfloer.cli:main"
        cmd, env = _entry_point_command()
        proc = subprocess.run(
            cmd + ["--json", "homology", grid_file("unknot3")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == EXIT_OK
        data = json.loads(proc.stdout)
        assert data["homology"] == [
            {"grading_doubled": 0, "free_rank": 4, "torsion": []}
        ]
        # the exit code must reach the shell, not just main()'s caller
        bad = tmp_path / "bad.grid"
        bad.write_text("n = 2\nO = 1 2\n")
        proc = subprocess.run(
            cmd + ["homology", str(bad)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == EXIT_PARSE
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
