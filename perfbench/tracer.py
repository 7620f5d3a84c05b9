"""Spans and per-layer counters recorded from the benchmark's own process.

Nothing inside the package changes.  ``install`` replaces, in this process
only, the module attributes through which the CLI and the benchmark reach
each layer, and wraps the ``translate``/``approx``/``evaluate`` callables of
the witnesses, reals and speed-ups handed back by the registry.

Calls at a layer boundary become spans (name, start, end, parent, op).  The
callables invoked once per sample are "hot": they only add to per-name
totals, so a million-sample sweep does not keep a million spans.  Each frame
accumulates the time of its children, which gives every name a self time.
"""

from __future__ import annotations

import dataclasses
import gc
import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.totals = defaultdict(lambda: [0, 0, 0])  # name -> [calls, total_ns, self_ns]
        self.counts = defaultdict(int)
        self.op = None
        self._stack: list[list] = []  # open spans: [span_id, child_ns, parent_span_id]
        self._in_hot = False
        self._next_id = 1
        self._distinct: dict[int, set] = {}
        self._gc_start = 0

    # -- recording -------------------------------------------------------

    def _enter(self) -> list:
        parent_span = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, 0, parent_span]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: int, end: int) -> None:
        self._stack.pop()
        duration = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((frame[0], frame[2], self.op, name, start, end))

    def hot(self, name: str, fn):
        """Per-sample callables: count and time only, no span and no frame."""
        total = self.totals[name]
        stack = self._stack

        def traced(*args):
            if self._in_hot:
                # Nested inside another hot call, whose time already covers it.
                start = perf_counter_ns()
                try:
                    return fn(*args)
                finally:
                    total[0] += 1
                    total[1] += perf_counter_ns() - start
            self._in_hot = True
            start = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                duration = perf_counter_ns() - start
                self._in_hot = False
                total[0] += 1
                total[1] += duration
                if stack:
                    stack[-1][1] += duration

        return traced

    def wrap(self, name: str, fn, post=None):
        def traced(*args, **kwargs):
            frame = self._enter()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start, perf_counter_ns())
            return post(result) if post is not None else result

        return traced

    def span(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    # -- wrappers for objects the registry hands back ---------------------

    def real(self, x):
        seen = self._distinct.setdefault(len(self._distinct), set())
        approx = self.hot("reals.approx", x.approx)

        def counted(n):
            seen.add(n)
            return approx(n)

        return dataclasses.replace(x, approx=counted)

    def witness(self, w):
        kind = w.name.partition("(")[0]  # identity, scaling(..), least(..), bits(..)
        return dataclasses.replace(w, translate=self.hot(f"reducibility.translate.{kind}", w.translate))

    def speedup(self, f):
        evaluate = self.hot("speedability.evaluate", f.evaluate)
        approx_total = self.totals["reals.approx"]

        def counted(n):
            before = approx_total[0]
            try:
                return evaluate(n)
            finally:
                self.counts["speedability.approx_in_evaluate"] += approx_total[0] - before

        return dataclasses.replace(f, evaluate=counted)

    def report(self, report):
        report.to_json_dict = self.wrap("util.to_json_dict", report.to_json_dict)
        return report

    def count(self, key: str, measure):
        def post(result):
            self.counts[key] += measure(result)
            return result

        return post

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.counts["runtime.gc_ns"] += perf_counter_ns() - self._gc_start
            self.counts["runtime.gc_collections"] += 1

    @property
    def approx_distinct(self) -> int:
        return sum(len(s) for s in self._distinct.values())

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counts": dict(self.counts, **{"reals.approx_distinct": self.approx_distinct}),
            "spans": len(self.spans),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                    "spans": self.spans,
                },
                fh,
            )


def install(tracer: Tracer, mods) -> None:
    """Patch the layer entry points of the imported package for this process."""
    cli, registry, reducibility, util, hyperimmunity, machines = (
        mods.cli, mods.registry, mods.reducibility, mods.util, mods.hyperimmunity, mods.machines
    )
    t = tracer
    report = t.report

    def patch(module, attr, name, post=None):
        setattr(module, attr, t.wrap(name, getattr(module, attr), post=post))

    patch(cli, "main", "cli.main")
    patch(registry, "parse_real", "registry.parse_real", post=t.real)
    patch(registry, "parse_speedup", "registry.parse_speedup", post=t.speedup)
    patch(registry, "parse_translation", "registry.parse_translation")
    patch(registry, "parse_witness", "registry.parse_witness", post=t.witness)
    samples_built = t.count("samples_built", len)
    for module in (cli, reducibility):
        patch(module, "check_witness", "reducibility.check_witness", post=report)
        patch(module, "dyadic_samples", "reducibility.sample_build", post=samples_built)
        patch(module, "default_samples", "reducibility.sample_build", post=samples_built)
    # The sweep's own grid call; the package's internal dyadic_grid calls stay
    # inside the default_samples/dyadic_samples spans.
    patch(mods, "dyadic_grid", "reducibility.sample_build", post=samples_built)
    report_bytes = t.count("util.report_bytes", len)
    for module in (cli, util):
        patch(module, "dump_json", "util.dump_json", post=report_bytes)
        patch(module, "atomic_write_text", "util.atomic_write_text")
    patch(cli, "gallery_from_config", "reals.gallery_from_config", post=lambda reals: [t.real(x) for x in reals])
    patch(cli, "liminf_record", "speedability.liminf_record", post=report)
    patch(cli, "check_total_speedup", "speedability.check_total_speedup", post=report)
    patch(cli, "speedup_from_translation", "speedability.speedup_from_translation", post=t.speedup)
    patch(cli, "translation_from_speedup", "speedability.translation_from_speedup")
    patch(cli, "amplify", "speedability.amplify")
    patch(cli, "uniformize", "machines.uniformize", post=t.count("machines.codes_out", lambda m: len(m.table)))
    patch(cli, "measure", "machines.measure")
    patch(cli, "check_usch", "machines.check_usch", post=report)
    patch(cli, "machine_from_dict", "machines.machine_from_dict")
    patch(cli, "machine_to_dict", "machines.machine_to_dict")
    patch(hyperimmunity, "k_bound_from_witness", "hyperimmunity.k_bound_from_witness")
    for module in (machines, hyperimmunity, reducibility):
        module.truncate = t.hot("dyadic.truncate", module.truncate)
    gc.callbacks.append(t._gc)
