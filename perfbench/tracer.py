"""Outside-in span tracing of gridfloer's layers.

Each traced layer is a public function.  `Tracer.install` replaces it, at
every place a ``gridfloer`` module binds the name, with a wrapper that opens a
span; `uninstall` puts the originals back.  Spans nest on a stack, so a
layer's self time is its duration minus its children's.  Spans stay in
memory and are written out once the run ends.

Counters are taken at the same boundaries by an `after` hook that looks at
the arguments and result.  The hook runs in its own span,
``trace.bookkeeping``, so its cost is not charged to the layer that called
the traced function.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter


def _count_complex(tr: "Tracer", args, c) -> None:
    tr.counters["complexes.states"] += len(c.basis)
    tr.counters["complexes.entries"] += sum(len(row) for row in c.boundary.values())


def _after_build_gc_prime(tr, args, c) -> None:
    _count_complex(tr, args, c)
    tr.grids_built.add(args[0])


def _after_homology(tr, args, summary) -> None:
    c = args[0]
    tr.counters["algebra.pivots"] += (len(c.basis) - summary.total_free()) // 2
    # d^2 probe on the same complex: the check and copy that open `homology`,
    # so that the reduction's share can be taken apart from it.
    from gridfloer import algebra

    algebra.boundary_squares_to_zero(c)


def _after_present_homology(tr, args, pres) -> None:
    c = args[0]
    tr.counters["algebra.pivots"] += (len(c.basis) - pres.summary.total_free()) // 2


# (module, public name, counter hook); spans are named "<module>.<name>".
LAYERS = (
    ("gridfloer.grids", "link_topology", None),
    ("gridfloer.complexes", "delta_grading", None),
    ("gridfloer.complexes", "build_gc_prime", _after_build_gc_prime),
    ("gridfloer.complexes", "build_complex", _count_complex),
    ("gridfloer.complexes", "verify_curvature", None),
    ("gridfloer.algebra", "boundary_squared", None),
    ("gridfloer.algebra", "homology", _after_homology),
    ("gridfloer.algebra", "boundary_squares_to_zero", None),
    ("gridfloer.algebra", "present_homology", _after_present_homology),
    ("gridfloer.algebra", "is_chain_map", None),
    ("gridfloer.algebra", "compose_chain_maps", None),
    ("gridfloer.algebra", "chain_maps_equal", None),
    ("gridfloer.algebra", "induced_map", None),
    ("gridfloer.cobordism", "band_map", None),
    ("gridfloer.cobordism", "quasi_stab_map", None),
    ("gridfloer.cobordism", "quasi_destab_map", None),
    ("gridfloer.cobordism", "compose_movie", None),
    ("gridfloer.cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, op, start, end, parent index]
        self._stack: list[int] = []    # indices of the open spans
        self._child: list[float] = []  # children's time of each open span
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.grids_built: set = set()
        self.op = -1                    # index of the operation in flight
        self._patched: list[tuple] = []

    def call(self, name: str, fn, args, kwargs, after):
        idx = len(self.spans)
        rec = [name, self.op, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            child = self._child.pop()
            dur = t1 - t0
            rec[2], rec[3] = t0, t1
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child
            if self._child:
                self._child[-1] += dur
        if after is not None:
            self.call("trace.bookkeeping", after, (self, args, result), {}, None)
        return result

    def _wrapper(self, name: str, fn, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)

        return traced

    def install(self) -> None:
        for home, _, _ in LAYERS:
            importlib.import_module(home)
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "gridfloer" or key.startswith("gridfloer."))
        ]
        for home, fname, after in LAYERS:
            orig = getattr(sys.modules[home], fname)
            wrapper = self._wrapper(f"{home.rsplit('.', 1)[-1]}.{fname}", orig, after)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def table(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        return {
            name: {
                "calls": self.calls[name],
                "s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }

    def write(self, path: str) -> None:
        names = sorted(self.calls)
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "layers": self.table(),
                    "counters": dict(self.counters),
                    "span_names": names,
                    "spans": [
                        [index[n], op, round(t0, 7), round(t1, 7), parent]
                        for n, op, t0, t1, parent in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
