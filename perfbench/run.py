"""gridfloer benchmark: one workload per call, measured end to end or traced.

    python3 perfbench/run.py --workload homology-n7 --seed 1711 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --write-reference --seconds 60

Run from the root of a checkout.  The workloads, metrics, units and bounds
are defined in ``BENCHMARK.json``; each workload runs in its own child
process (`worker.py`), so peak RSS is per workload.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` a traced run gives the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from tracer import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, TRACED_LAYERS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 11  # set-up samples per run; setup_s is their median


class WorkerFailed(RuntimeError):
    pass


def _spawn(workload: str, seed: int, seconds: float, mode: str, smoke=False, corrupt=False):
    """Start a worker, time its set-up up to READY, return (setup_s, report)."""
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    argv += ["--smoke"] * smoke + ["--corrupt"] * corrupt
    # PYTHONHASHSEED fixes set iteration over string labels (stabilized
    # complexes), so a seed always makes the same pivot choices.
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    setup_s = None
    last = None
    with proc:
        for line in proc.stdout:
            if setup_s is None and line == "READY\n":
                setup_s = perf_counter() - t0
            elif line.strip():
                last = line
    if proc.returncode != 0 or setup_s is None:
        raise WorkerFailed(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return setup_s, json.loads(last)


def _layer_metrics(traced: dict) -> dict:
    """Per-layer values of a traced run; a layer that did not run reads 0."""
    table = traced["layers"]
    out = {}
    for home, fname, _ in LAYERS:
        for key in ("calls", "s", "self_s"):
            out[f"{home.rsplit('.', 1)[-1]}.{fname}.{key}"] = 0
    for name, row in table.items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    counters = traced["counters"]
    for key in ("complexes.states", "complexes.entries", "algebra.pivots"):
        out[key] = counters.get(key, 0)
    builds = out["complexes.build_gc_prime.calls"]
    out["complexes.build_gc_prime.distinct_ratio"] = (
        traced["distinct_grids"] / builds if builds else 0.0
    )
    out["algebra.reduction_s"] = (
        out["algebra.homology.s"] - out["algebra.boundary_squares_to_zero.s"]
    )
    traced_wall = sum(traced["times"])
    self_sum = sum(row["self_s"] for row in table.values())
    out["trace.wall_s"] = traced_wall
    out["trace.self_sum_s"] = self_sum
    out["trace.unwrapped_s"] = traced_wall - self_sum
    out["trace.bookkeeping_s"] = out.get("trace.bookkeeping.self_s", 0.0)
    # the d^2 probe is extra work of the traced run, not tracer overhead
    out["trace.overhead_ratio"] = statistics.median(
        (t - probe) / u
        for t, u, probe in zip(traced["times"], traced["untraced_times"], traced["probe_times"])
    ) - 1
    return out


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool,
    smoke: bool = False, corrupt: bool = False,
) -> tuple[dict, dict]:
    """Returns (all measured values, {attempted, failed, failures})."""
    if trace:
        _, report = _spawn(workload, seed, 0, "trace", smoke, corrupt)
        values = _layer_metrics(report)
    else:
        repeats = 1 if smoke else SETUP_REPEATS
        setups = [_spawn(workload, seed, 0, "setup", smoke) for _ in range(repeats - 1)]
        setups.append(_spawn(workload, seed, seconds, "run", smoke, corrupt))
        report = setups[-1][1]
        fixed = report["fixed_ops"]
        times, scaled = report["times"], report["scaled_times"]
        values = {
            "wall_s": sum(scaled[:fixed]),
            "op_p50_s": statistics.median(scaled),
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(t * r["setup_factor"] for t, r in setups),
            "unscaled.wall_s": sum(times[:fixed]),
            "unscaled.op_p50_s": statistics.median(times),
            "unscaled.setup_s": statistics.median(t for t, _ in setups),
        }
    counts = {k: report[k] for k in ("attempted", "failed", "failures")}
    counts["samples"] = len(report["times"])
    return values, counts


def load_spec(root: str = ".") -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(spec: dict, values: dict, counts: dict, trace: bool) -> dict:
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    return {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }


def self_check(seed: int) -> int:
    """Smoke run of every workload on small grids: every named metric is
    emitted, every layer the workload runs has traced calls, a clean run
    fails nothing, and a run whose checks expect a wrong output counts every
    operation as failed."""
    spec = load_spec()
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            values, counts = run_workload(name, seed, 0, trace, smoke=True)
            named = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            missing = [m for m in named if m not in values]
            if missing:
                problems.append(f"{name} trace={int(trace)}: no value for {missing}")
                continue
            idle = [x for x in TRACED_LAYERS[name] if trace and not values.get(f"{x}.calls")]
            if idle:
                problems.append(f"{name}: no traced calls of {idle}")
            line = result_line(spec, values, counts, trace)
            if counts["failed"]:
                problems.append(f"{name} trace={int(trace)}: {counts['failures']}")
            print(f"{name} trace={int(trace)}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} ops, {line['failed']} failed")
        values, counts = run_workload(name, seed, 0, False, smoke=True, corrupt=True)
        if counts["failed"] != counts["attempted"] or not counts["attempted"]:
            problems.append(
                f"{name}: wrong expected outputs gave {counts['failed']} failures "
                f"in {counts['attempted']} ops"
            )
        print(f"{name} corrupt: {counts['failed']}/{counts['attempted']} counted failed")
    for p in problems:
        print(f"SELF-CHECK FAIL {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="smoke-run every workload on small grids and check the checks")
    p.add_argument("--write-reference", action="store_true",
                   help="record homology-n7 summaries of --seed for its output check")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "gridfloer", "__init__.py")):
        print("error: run from a checkout root holding src/gridfloer", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check(args.seed)
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        if args.write_reference:
            _spawn("homology-n7", args.seed, seconds, "record")
            return 0
        if args.workload is None:
            p.error("--workload is required")
        values, counts = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = result_line(spec, values, counts, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{counts['attempted']} ops, {counts['failed']} failed, "
          f"{counts['samples']} timed samples")
    for f in counts["failures"]:
        print(f"failed: {f}")
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name in ("unscaled.wall_s", "unscaled.op_p50_s", "unscaled.setup_s"):
        if name in values:
            print(f"{name} {values[name]:.6g} s")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
