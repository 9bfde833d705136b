"""One workload in its own process: set up, then run operations.

Run from the root of a checkout with ``PYTHONPATH=src``; `run.py` starts it.
Set-up is interpreter start, ``import gridfloer``, input generation and file
writing, and the warm-up of lazy caches.  The worker prints ``READY`` when
set-up is done, so the parent can time set-up from process start, and ends
with one JSON line of raw measurements.

Load is a closed loop with one operation in flight.  The first `fixed_ops`
operations always run; after them, new operations start until `--seconds`
have passed or the seeded inputs are used up.  In trace mode only the fixed
list runs, each operation once untraced and once traced.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
from time import perf_counter

from tracer import Tracer
from workloads import SMOKE_SIZES, WORKLOADS, make_ops

OUT_DIR = os.path.join("perfbench", "out")
REFERENCE = os.path.join("perfbench", "reference", "homology-n7.json")


def _import_program():
    """Import gridfloer from this checkout's `src`, never from elsewhere."""
    src = os.path.realpath("src")
    import gridfloer
    from gridfloer import cli, cobordism  # noqa: F401  (cli: the entry point)

    if not os.path.realpath(gridfloer.__file__).startswith(src + os.sep):
        sys.exit(f"gridfloer was imported from {gridfloer.__file__}, not from {src}")
    cobordism.derived_stab_offsets()  # lazy cache, filled once per process


def _load_reference(w) -> dict:
    if w.name != "homology-n7":
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)["summaries"]


def _timed(op, failures: list[str]) -> tuple[float, object]:
    """Run one operation; its check runs after the timer stops."""
    t0 = perf_counter()
    try:
        result, err = op.call(), None
    except Exception as exc:  # an operation that raises counts as failed
        result, err = None, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if err is None:
        err = op.check(result)
    if err is not None:
        failures.append(f"{op.label}: {err}")
    return dt, result


# Host speed.  The machine this benchmark was built on is shared: the same
# operation ran up to 1.8 times slower for a minute at a time, and process
# CPU time slowed with it.  A fixed loop of dict and tuple work, timed next
# to each measurement, tracks those changes but swings further: over blocks
# of 10 to 20 operations, log(operation time) rose about 0.5 times as fast as
# log(loop time) on homology-n7 and curvature-n6.  So each time is also
# reported scaled by `speed_factor`; over those blocks this halved the
# spread of the summed times.  The loop is the benchmark's own code, so a
# change to gridfloer does not change the loop's work.
CALIBRATION_S = 0.025  # about the loop's median time there, Python 3.11


def calibrate() -> float:
    """Seconds for one run of the fixed loop, with the collector off so that
    the program's collector settings cannot change it."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    d: dict = {}
    for i in range(60000):
        key = ((i * 7919) % 10007, i & 15)
        d[key] = d.get(key, 0) ^ i
    total = 0
    for v in d.values():
        total += v & 3
    dt = perf_counter() - t0
    if was_enabled:
        gc.enable()
    return dt


def speed_factor(loop_s: float) -> float:
    """Scale for a time measured next to a loop that took `loop_s`."""
    return (CALIBRATION_S / loop_s) ** 0.5


def _run_ops(ops, fixed_ops, seconds, failures: list[str], keep: bool, first_loop: float):
    times: list[float] = []
    loops = [first_loop]  # loop times before and after each operation
    results: list = []
    start = perf_counter()
    for i, op in enumerate(ops):
        if i >= fixed_ops and perf_counter() - start >= seconds:
            break
        dt, result = _timed(op, failures)
        times.append(dt)
        loops.append(calibrate())
        if keep:
            results.append((op.label, result))
    scaled = [
        t * speed_factor((before + after) / 2)
        for t, before, after in zip(times, loops, loops[1:])
    ]
    return times, scaled, results


def _trace_ops(ops, fixed_ops: int, tracer: Tracer, failures: list[str]) -> dict:
    """Run each operation of the fixed list once untraced and once traced,
    alternating which goes first, so that both see the same host.  The
    traced time less the d^2 probe's time, over the untraced time, gives the
    tracer's overhead on that operation."""
    probe = "algebra.boundary_squares_to_zero"
    traced, untraced, probed = [], [], []
    for i, op in enumerate(ops[:fixed_ops]):
        for run_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not run_traced:
                untraced.append(_timed(op, failures)[0])
                continue
            tracer.op = i
            before = tracer.total_s[probe]
            tracer.install()
            try:
                traced.append(_timed(op, failures)[0])
            finally:
                tracer.uninstall()
            probed.append(tracer.total_s[probe] - before)
    return {"times": traced, "untraced_times": untraced, "probe_times": probed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace", "record"), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    args = p.parse_args(argv)

    _import_program()
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    # Inputs go to new files in a directory of this process's own, so every
    # set-up does the same file-system work, whatever earlier runs left.
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR)
    try:
        report = _work(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report), flush=True)
    return 0


def _work(args, tag: str, workdir: str) -> dict:
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = dataclasses.replace(w, size=SMOKE_SIZES[w.name], fixed_ops=1)
    reference = {} if args.smoke or args.mode == "record" else _load_reference(w)
    ops = make_ops(w, args.seed, workdir, args.corrupt, reference)
    print("READY", flush=True)
    # the host's speed right after set-up, to scale the set-up time with
    first_loop = calibrate()
    if args.mode == "setup":
        return {"setup_factor": speed_factor(first_loop)}

    failures: list[str] = []
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        report = _trace_ops(ops, w.fixed_ops, tracer, failures)
        attempted = 2 * len(report["times"])
    else:
        times, scaled, results = _run_ops(
            ops, w.fixed_ops, args.seconds, failures, args.mode == "record", first_loop
        )
        report = {"times": times, "scaled_times": scaled}
        attempted = len(times)

    if args.mode == "record":
        summaries = {}
        for path, (_, out) in results:
            with open(path) as fh:
                summaries[fh.read()] = json.loads(out)["homology"]
        entries = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in summaries.items())
        with open(REFERENCE, "w") as fh:
            fh.write(f'{{"seed": {args.seed}, "summaries": {{\n{entries}\n}}}}\n')

    report.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "fixed_ops": w.fixed_ops,
        "setup_factor": speed_factor(first_loop),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        report["layers"] = tracer.table()
        report["counters"] = dict(tracer.counters)
        report["distinct_grids"] = len(tracer.grids_built)
        tracer.write(os.path.join(OUT_DIR, f"trace-{tag}.json"))
    return report


if __name__ == "__main__":
    sys.exit(main())
