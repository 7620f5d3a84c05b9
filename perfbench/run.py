"""lce-lab benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload sweep-pass|sweep-violations|session \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
and nothing else.  The seed builds the inputs (``plan.py``); the workload
runs in a fresh child process (``worker.py``) with ``LCE_LAB_THREADS``
removed from its environment, one client in a closed loop.  Set-up is timed
in that process and in four fresh processes before and four after it, and
reported as the median.  The host's speed drifts by tens of percent in
streaks of seconds, so every time is read against a calibration chunk run
next to it and reported at the reference speed of ``worker.CAL_REF_NS``; the
raw medians are printed too.  After the child ends, every output of its
first round is compared with an independent ``Fraction`` reference
(``reference.py``), and later rounds must repeat those bytes exactly; any
mismatch, exception or wrong exit code is a failed op.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics (see ``layers.json``).  Everything the
run writes stays under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from plan import TAIL_PERCENTILE, WORKLOADS, make_plan
from reference import expect, verify
from worker import CAL_REF_NS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 4  # fresh set-up processes before, and again after, the workload
TRANSLATE_KINDS = ("least", "scaling", "identity", "bits")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    # LCE_LAB_THREADS would switch the checker onto its threaded path; a fixed
    # hash seed removes one source of process-to-process timing variation.
    env = {k: v for k, v in os.environ.items() if k not in ("LCE_LAB_THREADS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(argv: list[str], deadline: float) -> str:
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, *argv],
        env=_child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{err[-2000:]}")
    return out


def _setup(common: list[str], deadline: float) -> dict:
    return json.loads(_run_child([*common, "--setup-only"], deadline).splitlines()[-1])


def at_reference_speed(ns: float, cal_ns: float) -> float:
    return ns * CAL_REF_NS / cal_ns


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _tamper(output: dict, run_dir: str) -> tuple[int, str]:
    """A copy of a genuine result with one value changed."""
    if "text" in output:
        return output["exit"], str(int(output["text"]) + 1)
    with open(os.path.join(run_dir, output["path"])) as fh:
        doc = json.load(fh)

    def bump(node):
        if isinstance(node, dict):
            for key in sorted(node):
                if isinstance(node[key], bool):
                    node[key] = not node[key]
                    return True
                if isinstance(node[key], int):
                    node[key] += 1
                    return True
                if bump(node[key]):
                    return True
        if isinstance(node, list):
            return any(bump(item) for item in node[:1])
        return False

    if not bump(doc):
        doc["tampered"] = True
    return output["exit"], json.dumps(doc)


def negative_controls(plan: dict, expected: dict, outputs: dict, run_dir: str) -> list[str]:
    """Results the reference must reject; returns the controls it failed to flag."""
    missed = []
    op = plan["ops"][0]
    if op["id"] in outputs and not verify(expected[op["id"]], *_tamper(outputs[op["id"]], run_dir)):
        missed.append("tampered result")
    c8 = {
        "kind": "cli", "command": "check-witness", "alpha": "geometric:1/2", "beta": "geometric:1/4",
        "witness": "identity", "c": "1", "samples": 64,
    }
    want = expect(c8, {})
    hits = [v for v in want["report"]["violations"] if v["q"] == Fraction(15, 64)]
    if not hits or hits[0]["reason"] != "gap_bound_failed":
        missed.append("criterion 8: reference misses the violation at 15/64")
    claimed_pass = json.dumps({**want["report"], "passed": True, "violations": [], "max_ratio_seen": "1/2"})
    if not verify(want, 0, claimed_pass):
        missed.append("criterion 8: a pass claim was accepted")
    return missed


def _counts(doc: dict) -> dict:
    return {"checked": doc["samples_checked"], "skipped": doc["skipped"], "violations": len(doc["violations"])}


def check_outputs(plan, state, run_dir):
    """Reference verdicts plus the worker's own determinism failures.

    Also returns the checked/skipped/violation counts that the program's own
    round-0 reports give, per check-witness op.
    """
    files = plan["files"]
    expected = {op["id"]: expect(op, files) for op in plan["ops"]}
    rounds = len(state["rounds"])
    failed = {(f["op"], f["round"]) for f in state["failures"]}
    messages = [f"{f['op']} round {f['round']}: {f['why']}" for f in state["failures"]]
    reported = {}
    for op in plan["ops"]:
        output = state["outputs"].get(op["id"])
        if output is None:
            problems = ["no output in round 0"]
        elif "text" in output:
            problems = verify(expected[op["id"]], output["exit"], output["text"])
        else:
            with open(os.path.join(run_dir, output["path"])) as fh:
                text = fh.read()
            problems = verify(expected[op["id"]], output["exit"], text)
            if "stats" in expected[op["id"]] and not problems:
                reported[op["id"]] = _counts(json.loads(text))
        if problems:
            # Later rounds repeat round 0's bytes, so they are wrong too.
            failed.update((op["id"], r) for r in range(rounds))
            messages += [f"{op['id']}: {p}" for p in problems]
    controls_missed = negative_controls(plan, expected, state["outputs"], run_dir)
    return expected, failed, messages, controls_missed, reported


def _round_walls(state, phase, raw=False) -> list[float]:
    """Round times in seconds, at the reference speed unless raw."""
    return [
        sum(ns if raw else at_reference_speed(ns, c) for ns, c in zip(r["latencies_ns"], r["cal_ns"])) / 1e9
        for r in state["rounds"]
        if r["phase"] == phase
    ]


def _op_medians_ms(state, phase) -> list[float]:
    """Each op of the plan: its median time over the rounds of the phase."""
    rounds = [r for r in state["rounds"] if r["phase"] == phase]
    return [
        statistics.median(at_reference_speed(r["latencies_ns"][i], r["cal_ns"][i]) / 1e6 for r in rounds)
        for i in range(len(rounds[0]["latencies_ns"]))
    ]


def _speed_factor(state, phase) -> float:
    """Median factor that takes a raw time of this phase to the reference speed."""
    return statistics.median(CAL_REF_NS / c for r in state["rounds"] if r["phase"] == phase for c in r["cal_ns"])


def end_to_end(plan, state, expected, setups):
    walls = _round_walls(state, "untraced")
    samples = sum(e.get("stats", {}).get("samples", 0) for e in expected.values())
    latencies_ms = [
        at_reference_speed(ns, c) / 1e6 for r in state["rounds"] for ns, c in zip(r["latencies_ns"], r["cal_ns"])
    ]
    p = TAIL_PERCENTILE[plan["workload"]]
    metrics = {
        "setup_s": (statistics.median(at_reference_speed(s["setup_s"], s["cal_ns"]) for s in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "samples_per_s": (statistics.median(samples / w for w in walls), "1/s"),
        "ops_per_s": (statistics.median(len(plan["ops"]) / w for w in walls), "1/s"),
        # A round mixes ops of different cost; the median over all op times
        # would sit in the gap between two ops and jump across it, so each
        # op's median over the rounds is taken first.
        "op_p50_ms": (statistics.median(_op_medians_ms(state, "untraced")), "ms"),
        "op_tail_ms": (percentile(latencies_ms, p), "ms"),
        "peak_rss_mb": (state["peak_rss_kb"] / 1024, "MB"),
    }
    notes = {
        "op_tail_percentile": p,
        "op_count": len(latencies_ms),
        "rounds": len(walls),
        "raw_wall_s": statistics.median(_round_walls(state, "untraced", raw=True)),
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "workload_process_setup_s": at_reference_speed(state["setup"]["setup_s"], state["setup"]["cal_ns"]),
        "speed_factor": _speed_factor(state, "untraced"),
    }
    return metrics, notes


def workload_shares(expected, reported) -> dict:
    """Counts from the program's own reports; cache reuse is a property of the inputs."""
    counts = list(reported.values())
    samples = sum(c["checked"] + c["skipped"] for c in counts)
    checked = sum(c["checked"] for c in counts)
    violations = sum(c["violations"] for c in counts)
    stats = [e["stats"] for e in expected.values() if "stats" in e]
    calls = sum(s["translate_calls"] for s in stats)
    return {
        "samples_checked": checked,
        "samples_skipped": samples - checked,
        "violations": violations,
        "skip_share": (samples - checked) / samples if samples else 0.0,
        "violation_share": violations / checked if checked else 0.0,
        "input_translate_cache_reuse": sum(s["cache_reuse_calls"] for s in stats) / calls if calls else 0.0,
    }


def per_layer(state, expected, shares):
    """Per-round (or per-call) layer figures from the traced half of the run.

    Times are taken to the reference speed with the traced half's median
    calibration factor.
    """
    totals, counts = state["trace"]["totals"], state["trace"]["counts"]
    rounds = len(_round_walls(state, "traced"))

    def calls(*names):
        return sum(totals.get(n, [0, 0, 0])[0] for n in names)

    def seconds(*names):
        return sum(totals.get(n, [0, 0, 0])[1] for n in names) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def us_per_call(*names):
        return ratio(seconds(*names) * 1e6, calls(*names))

    samples = rounds * sum(e.get("stats", {}).get("samples", 0) for e in expected.values())
    check_self_s = totals.get("reducibility.check_witness", [0, 0, 0])[2] / 1e9
    parses = [f"registry.parse_{k}" for k in ("real", "witness", "speedup", "translation")]
    metrics = {
        "reducibility.check_us_per_sample": (ratio(check_self_s * 1e6, samples), "us"),
        "reducibility.sample_build_us_per_sample": (
            ratio(seconds("reducibility.sample_build") * 1e6, counts.get("samples_built", 0)), "us"),
    }
    for kind in TRANSLATE_KINDS:
        name = f"reducibility.translate.{kind}"
        metrics[f"reducibility.translate_us_per_call.{kind}"] = (us_per_call(name), "us")
        metrics[f"reducibility.translate_calls.{kind}"] = (calls(name) / rounds, "count")
    metrics.update(
        {
            "reducibility.samples_checked": (shares["samples_checked"], "count"),
            "reducibility.samples_skipped": (shares["samples_skipped"], "count"),
            "reducibility.violations": (shares["violations"], "count"),
            "util.serialize_s": (seconds("util.to_json_dict", "util.dump_json") / rounds, "s"),
            "util.report_bytes": (counts.get("util.report_bytes", 0) / rounds, "bytes"),
            "util.write_s": (seconds("util.atomic_write_text") / rounds, "s"),
            "reals.approx_calls": (calls("reals.approx") / rounds, "count"),
            "reals.approx_distinct": (counts.get("reals.approx_distinct", 0) / rounds, "count"),
            "reals.approx_us_per_call": (us_per_call("reals.approx"), "us"),
            "speedability.evaluate_calls": (calls("speedability.evaluate") / rounds, "count"),
            "speedability.approx_calls_per_evaluate": (
                ratio(counts.get("speedability.approx_in_evaluate", 0), calls("speedability.evaluate")), "ratio"),
            "speedability.trace_s": (seconds("speedability.liminf_record") / rounds, "s"),
            "hyperimmunity.k_bound_s": (seconds("hyperimmunity.k_bound_from_witness") / rounds, "s"),
            "hyperimmunity.translate_calls": (calls("reducibility.translate.bits") / rounds, "count"),
            "machines.uniformize_s": (seconds("machines.uniformize") / rounds, "s"),
            "machines.codes_out": (counts.get("machines.codes_out", 0) / rounds, "count"),
            "machines.measure_s": (seconds("machines.measure") / rounds, "s"),
            "machines.check_usch_s": (seconds("machines.check_usch") / rounds, "s"),
            "dyadic.truncate_us_per_call": (us_per_call("dyadic.truncate"), "us"),
            "registry.parse_us": (us_per_call(*parses), "us"),
            "cli.self_ms": (ratio(totals.get("cli.main", [0, 0, 0])[2] / 1e6, calls("cli.main")), "ms"),
            "runtime.gc_s": (counts.get("runtime.gc_ns", 0) / 1e9 / rounds, "s"),
            "runtime.gc_collections": (counts.get("runtime.gc_collections", 0) / rounds, "count"),
            "trace.overhead_s": (
                statistics.median(_round_walls(state, "traced")) - statistics.median(_round_walls(state, "untraced")),
                "s"),
            "trace.spans": (state["trace"]["spans"], "count"),
        }
    )
    factor = _speed_factor(state, "traced")
    return {
        name: (value * factor if unit in ("s", "ms", "us") and not name.startswith("trace.") else value, unit)
        for name, (value, unit) in metrics.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lce-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Set-up processes, the final round's overshoot and the reference check
    # fit in a margin; the rest scales with the measured time.
    deadline = time.monotonic() + 60 + 2 * args.seconds

    if not os.path.isfile(os.path.join(ROOT, "src", "lce_lab", "__init__.py")):
        sys.stderr.write(f"no lce_lab package under {ROOT}/src: run from a full checkout\n")
        return 2
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--run-dir", run_dir, "--workload", args.workload, "--seed", str(args.seed)]
    try:
        # Set-up is timed before and after the workload, so the median spans
        # the run rather than one moment of a machine whose speed drifts.
        setups = [_setup(common, deadline) for _ in range(SETUP_REPEATS)]
        _run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        setups += [_setup(common, deadline) for _ in range(SETUP_REPEATS)]
        with open(os.path.join(run_dir, "worker.json")) as fh:
            state = json.load(fh)
        setups.append(state["setup"])
        plan = make_plan(args.workload, args.seed)
        expected, failed, messages, controls_missed, reported = check_outputs(plan, state, run_dir)
        shares = workload_shares(expected, reported)
        if args.trace:
            metrics = per_layer(state, expected, shares)
            notes = {"spans_file": f".perfbench-out/spans-{args.workload}-seed{args.seed}.json"}
            shutil.move(os.path.join(run_dir, "spans.json"), os.path.join(ROOT, notes["spans_file"]))
        else:
            metrics, notes = end_to_end(plan, state, expected, setups)
    except BenchError as e:
        sys.stderr.write(f"{e}\n")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(r["latencies_ns"]) for r in state["rounds"])
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "clients": 1, "loop": "closed"}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"python {env['python']} nproc {env['nproc']} one client, closed loop")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    print(f"  error_rate {len(failed) / attempted:.6g} ({len(failed)}/{attempted} ops failed)")
    print("  " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in {**shares, **notes}.items()))
    for line in messages[:20]:
        print(f"  FAILED {line}")
    for control in controls_missed:
        print(f"  NEGATIVE CONTROL NOT FLAGGED: {control}")
    summary = {
        "correct": not failed and not controls_missed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**summary, "environment": env, "shares": shares, "notes": notes, "failures": messages}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
