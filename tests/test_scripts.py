"""Each script under scripts/ runs to completion on its smallest input, so a
renamed or deleted export it imports cannot break it unnoticed."""
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CASES = {
    "dsquared_sweep.py": ["--size", "4", "--count", "3"],
    "corpus_tables.py": ["--json"],
    "band_relation_search.py": ["unknot3"],
}


def test_every_script_has_a_case():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *CASES[script]],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    if "--json" in CASES[script]:
        json.loads(proc.stdout)


def test_sweep_counts_a_grading_fault(monkeypatch, capsys):
    # the build raises NotHomogeneous; the sweep counts it and goes on
    import importlib.util
    import weakref

    from gridfloer import complexes

    spec = importlib.util.spec_from_file_location(
        "dsquared_sweep", ROOT / "scripts" / "dsquared_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    graded = complexes.delta_grading

    def off(grid, state, grid_part=None):
        return graded(grid, state, grid_part) + (2 if state == (1, 0, 2, 3) else 0)

    monkeypatch.setattr(complexes, "delta_grading", off)
    monkeypatch.setattr(complexes, "_GC_PRIME_ALIVE", weakref.WeakValueDictionary())
    assert sweep.main(["--size", "4", "--count", "2"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_search_traces_the_start_grid_once_for_all_sites(monkeypatch, capsys):
    # the start grid is traced by its build and once for every site's band
    # class; each switched grid by its build and by its own band class
    import importlib.util
    import weakref

    import gridfloer
    from gridfloer import complexes, corpus_grid, find_switch_sites

    calls = []
    real = gridfloer.grids.link_topology

    def counting(g):
        calls.append(g)
        return real(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("gridfloer") and getattr(module, "link_topology", None) is real:
            monkeypatch.setattr(module, "link_topology", counting)
    monkeypatch.setattr(complexes, "_GC_PRIME_ALIVE", weakref.WeakValueDictionary())
    spec = importlib.util.spec_from_file_location(
        "band_relation_search", ROOT / "scripts" / "band_relation_search.py"
    )
    search = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(search)
    assert search.main(["unknot4_sites"]) == 0
    assert "4/4 sites satisfy the relation" in capsys.readouterr().out
    g = corpus_grid("unknot4_sites")
    switched = Counter(calls)
    assert switched.pop(g) == 2
    assert len(switched) == len(find_switch_sites(g)) == 4
    assert set(switched.values()) == {2}
