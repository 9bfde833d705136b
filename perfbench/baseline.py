"""Repeat the benchmark over seeds and record medians, quartiles and spread.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Run from the root of a checkout.  Each workload runs in two sets, each of
one run per seed with tracing off (the default seed and the holdout seed
first, then 1, 2, ...), then once traced on the default seed.  For every
end-to-end metric and set it reports the median, the quartiles of
`statistics.quantiles(n=4)` and the spread (q3 - q1) / median, and marks a
spread of a third of the metric's bound or more.  It then reports how much
worse the second set's median is than the first's, and marks a metric where
that exceeds its bound.  With `--out` it writes all of this as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [
        sys.executable, RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    line = json.loads(lines[-1])
    values = {k: m["value"] for k, m in line["metrics"].items()}
    for text in lines:
        if text.startswith("unscaled."):
            name, value, _ = text.split()
            values[name] = float(value)
    return {
        "seed": seed,
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "values": values,
    }


def _bounds(spec: dict) -> dict:
    """Unit and bound of each end-to-end metric, and of the unscaled times
    that the scaled ones come from, under the scaled ones' bounds."""
    out = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    out.update({f"unscaled.{n}": out[n] for n in ("wall_s", "op_p50_s", "setup_s")})
    return out


def summarize(spec: dict, runs: list[dict]) -> dict:
    out = {}
    for name, (unit, bound) in _bounds(spec).items():
        values = [r["values"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        out[name] = {
            "unit": unit,
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": bound,
            "steady": spread < bound / 3,
        }
    return out


def compare(spec: dict, first: dict, second: dict) -> dict:
    """How much worse the second set's median is than the first's, as a
    share of the first; a metric agrees when that stays within its bound.
    Every end-to-end metric here is better when lower."""
    out = {}
    for name, (_, bound) in _bounds(spec).items():
        a, b = first[name]["median"], second[name]["median"]
        out[name] = {"worse_by": (b - a) / a, "agree": (b - a) / a <= bound}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10, help="seeds per set")
    p.add_argument("--out")
    args = p.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seeds = ([DEFAULT_SEED, HOLDOUT_SEED] + list(range(1, args.runs - 1)))[: args.runs]
    doc = {
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in WORKLOADS:
        sets = []
        for k in (1, 2):
            runs = []
            for seed in seeds:
                r = run_once(spec, name, seed, 0)
                runs.append(r)
                print(f"{name} set {k} seed {seed}: {r['attempted']} ops, "
                      f"{r['failed']} failed, "
                      + ", ".join(f"{m}={v:.4g}" for m, v in r["values"].items()), flush=True)
            sets.append({"runs": runs, "end_to_end": summarize(spec, runs)})
            for metric, s in sets[-1]["end_to_end"].items():
                mark = "" if s["steady"] else "  <-- spread >= bound/3"
                print(f"  {metric}: median {s['median']:.5g} {s['unit']}, "
                      f"q1 {s['q1']:.5g}, q3 {s['q3']:.5g}, spread {s['spread']:.4f} "
                      f"(bound {s['bound']}){mark}", flush=True)
        agreement = compare(spec, sets[0]["end_to_end"], sets[1]["end_to_end"])
        for metric, a in agreement.items():
            print(f"  {metric}: set 2 worse by {a['worse_by']:+.4f}"
                  + ("" if a["agree"] else "  <-- beyond the bound"), flush=True)
        traced = run_once(spec, name, DEFAULT_SEED, 1)
        doc["workloads"][name] = {
            "sets": sets,
            "agreement": agreement,
            "per_layer": {"seed": DEFAULT_SEED, **traced},
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
