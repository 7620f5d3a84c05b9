"""One workload in one fresh process: set up, then run rounds in a closed loop.

    python3 perfbench/worker.py --root DIR --run-dir DIR --workload NAME \
        --seed N --seconds S --trace 0|1 [--setup-only]

Set-up (timed) imports the package from ``<root>/src`` and writes the plan's
input files.  A round runs every operation of the plan once, one after the
other, with a single client; rounds repeat until ``--seconds`` have passed
and the workload's minimum op count is reached.  A fixed calibration chunk
of plain Python runs after set-up and between any two operations, so each
time can be read against the machine's speed at that moment (see
``calibration_ns``).  Round 0 keeps its outputs for the reference check made
by ``run.py``; every later round must reproduce them byte for byte.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced, so the difference of the two gives the tracing overhead.  Results go
to ``<run-dir>/worker.json``.
"""

import sys
import time

_T0 = time.perf_counter()


def _import_package(root: str):
    sys.path.insert(0, f"{root}/src")
    import lce_lab
    from lce_lab import cli, hyperimmunity, machines, registry, reducibility, util

    if not lce_lab.__file__.startswith(f"{root}/src/"):
        raise SystemExit(f"lce_lab imported from {lce_lab.__file__}, not from {root}/src")
    return cli, hyperimmunity, machines, registry, reducibility, util


if __name__ == "__main__":
    _ROOT = sys.argv[sys.argv.index("--root") + 1]
    _MODULES = _import_package(_ROOT)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter_ns  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from plan import make_plan, min_ops  # noqa: E402
from tracer import Tracer, install  # noqa: E402


# Calibration time of the reference speed at which run.py reports times.
CAL_REF_NS = 2_500_000


def _calibration_chunk() -> int:
    total = Fraction(0)
    third = Fraction(1, 3)
    table = {}
    for k in range(1, 300):
        q = Fraction(k, 1 << (k % 13))
        total += q * third
        if total > q:
            total -= q
        table[str(k)] = q.numerator
    return len(json.dumps(table)) + total.denominator


def calibration_ns() -> int:
    """Time of one fixed chunk of Fraction, dict and str work; never touches lce_lab.

    The host's speed drifts by tens of percent in streaks of seconds, and
    this chunk slows down with it; a time t measured next to a chunk that took
    c ns reads as t * CAL_REF_NS / c at the reference speed.
    """
    start = perf_counter_ns()
    _calibration_chunk()
    return perf_counter_ns() - start


def write_inputs(plan: dict, run_dir: str) -> None:
    for rel, doc in plan["files"].items():
        path = os.path.join(run_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


class Runner:
    """Executes plan operations through the package's public entry points."""

    def __init__(self, mods, tracer=None):
        self.m = mods
        self.tracer = tracer

    def sweep(self, op, out_dir):
        m = self.m
        alpha = m.registry.parse_real(op["alpha"])
        beta = m.registry.parse_real(op["beta"])
        witness = m.registry.parse_witness(op["witness"], m.util.parse_rational(op["c"]), alpha)
        samples = m.dyadic_grid(op["length"], Fraction(1))
        report = m.reducibility.check_witness(alpha, beta, witness, samples)
        path = f"{out_dir}/{op['id']}.json"
        m.util.atomic_write_text(path, m.util.dump_json(report.to_json_dict()))
        return (0 if report.passed else 1), path

    def cli(self, op, out_dir):
        argv = [a.replace("{out}", out_dir) for a in op["argv"]]
        with contextlib.redirect_stderr(io.StringIO()):
            code = self.m.cli.main(argv)
        return code, argv[argv.index("--out") + 1]

    def k_bound(self, op, out_dir):
        m = self.m
        a, b = op["majorizer"]
        witness = m.hyperimmunity.total_witness_from_majorizer(
            m.hyperimmunity.builtin_set(op["set"]), lambda n: a * n + b
        )
        if self.tracer is not None:
            witness = self.tracer.witness(witness)
        alpha = m.registry.parse_real(f"set:{op['set']}")
        return 0, str(m.hyperimmunity.k_bound_from_witness(witness, alpha, op["n"]))

    def run(self, op, out_dir):
        """-> (exit code, output path or text)"""
        fn = getattr(self, op["kind"])
        if self.tracer is None:
            return fn(op, out_dir)
        self.tracer.op = op["id"]
        return self.tracer.span(f"op.{op['kind']}", fn, op, out_dir)


def digest(code: int, output: str, is_path: bool) -> str:
    h = hashlib.sha256(str(code).encode())
    if is_path:
        with open(output, "rb") as fh:
            h.update(fh.read())
    else:
        h.update(output.encode())
    return h.hexdigest()


def run_rounds(runner, plan, seconds, phase, state, min_op_count):
    """Closed loop of rounds until the time budget and the op minimum are met.

    Each op's calibration is the mean of the chunks just before and after it.
    """
    began = perf_counter_ns()
    ops_done = 0
    cal_before = calibration_ns()
    while perf_counter_ns() - began < seconds * 1e9 or ops_done < min_op_count:
        round_no = len(state["rounds"])
        out_dir = "r0" if round_no == 0 else "rn"
        os.makedirs(out_dir, exist_ok=True)
        latencies = []
        cals = []
        for op in plan["ops"]:
            start = perf_counter_ns()
            try:
                code, output = runner.run(op, out_dir)
            except Exception:
                code = None
                state["failures"].append({"op": op["id"], "round": round_no, "why": traceback.format_exc(limit=4)})
            latencies.append(perf_counter_ns() - start)
            cal_after = calibration_ns()
            cals.append((cal_before + cal_after) // 2)
            cal_before = cal_after
            if code is None:
                continue
            is_path = op["kind"] != "k_bound"
            try:
                d = digest(code, output, is_path)
            except OSError as e:
                state["failures"].append({"op": op["id"], "round": round_no, "why": f"no output: {e}"})
                continue
            first = state["digests"].setdefault(op["id"], d)
            if round_no == 0:
                state["outputs"][op["id"]] = {"exit": code, ("path" if is_path else "text"): output}
            elif d != first:
                state["failures"].append({"op": op["id"], "round": round_no, "why": "output differs from round 0"})
        state["rounds"].append({"phase": phase, "latencies_ns": latencies, "cal_ns": cals})
        ops_done += len(latencies)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    plan = make_plan(args.workload, args.seed)
    write_inputs(plan, args.run_dir)
    setup_s = time.perf_counter() - _T0
    setup_cal_ns = sorted(calibration_ns() for _ in range(3))[1]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "cal_ns": setup_cal_ns}))
        return 0

    cli, hyperimmunity, machines, registry, reducibility, util = _MODULES
    mods = SimpleNamespace(
        cli=cli, hyperimmunity=hyperimmunity, machines=machines,
        registry=registry, reducibility=reducibility, util=util,
        dyadic_grid=reducibility.dyadic_grid,
    )
    os.chdir(args.run_dir)
    state = {"rounds": [], "failures": [], "digests": {}, "outputs": {}}
    needed = min_ops(args.workload)
    if args.trace:
        run_rounds(Runner(mods), plan, args.seconds / 2, "untraced", state, 1)
        tracer = Tracer()
        install(tracer, mods)
        run_rounds(Runner(mods, tracer), plan, args.seconds / 2, "traced", state, 1)
        tracer.write_spans("spans.json")
    else:
        run_rounds(Runner(mods), plan, args.seconds, "untraced", state, needed)
    state["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    state["setup"] = {"setup_s": setup_s, "cal_ns": setup_cal_ns}
    if args.trace:
        state["trace"] = tracer.summary()
    with open("worker.json", "w") as fh:
        json.dump(state, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
