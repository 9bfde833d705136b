"""Each script under scripts/ runs to completion on its smallest input, so a
renamed or deleted export it imports cannot break it unnoticed."""
import json
import os
import subprocess
import sys
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
