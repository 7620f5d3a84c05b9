"""Self-tests of the benchmark's reference check and negative controls.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from lce_lab import cli, hyperimmunity, machines, registry, reducibility, util  # noqa: E402
from plan import WORKLOADS, make_plan  # noqa: E402
from reference import expect, verify  # noqa: E402
from worker import CAL_REF_NS, Runner, write_inputs  # noqa: E402

CRITERION_8 = {
    "kind": "cli", "command": "check-witness", "alpha": "geometric:1/2", "beta": "geometric:1/4",
    "witness": "identity", "c": "1", "samples": 64,
}


def _runner():
    return Runner(
        SimpleNamespace(
            cli=cli, hyperimmunity=hyperimmunity, machines=machines, registry=registry,
            reducibility=reducibility, util=util, dyadic_grid=reducibility.dyadic_grid,
        )
    )


def _round_zero(workload, seed, tmp_path, monkeypatch):
    """Run one round of a plan in tmp_path; -> (plan, worker state)."""
    plan = make_plan(workload, seed)
    write_inputs(plan, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    os.makedirs("r0")
    runner = _runner()
    outputs = {}
    for op in plan["ops"]:
        code, output = runner.run(op, "r0")
        outputs[op["id"]] = {"exit": code, ("text" if op["kind"] == "k_bound" else "path"): output}
    ops = len(plan["ops"])
    state = {
        "rounds": [{"phase": "untraced", "latencies_ns": [1] * ops, "cal_ns": [CAL_REF_NS] * ops}],
        "failures": [],
        "outputs": outputs,
    }
    return plan, state


def test_plans_are_seeded():
    for workload in WORKLOADS:
        assert make_plan(workload, 7) == make_plan(workload, 7)
        assert any(make_plan(workload, 7) != make_plan(workload, s) for s in range(8, 12))


def test_reference_finds_criterion_8_violation():
    want = expect(CRITERION_8, {})
    assert want["exit"] == 1
    hits = [v for v in want["report"]["violations"] if v["q"] == Fraction(15, 64)]
    assert hits and hits[0]["reason"] == "gap_bound_failed"


def test_program_agrees_with_reference_on_criterion_8(tmp_path):
    out = tmp_path / "c8.json"
    code = cli.main([
        "check-witness", "--alpha", "geometric:1/2", "--beta", "geometric:1/4",
        "--witness", "identity", "--c", "1", "--samples", "64", "--out", str(out),
    ])
    want = expect(CRITERION_8, {})
    assert verify(want, code, out.read_text()) == []
    doc = json.loads(out.read_text())
    doc["violations"] = [v for v in doc["violations"] if v["q"] != "15/64"]
    assert verify(want, code, json.dumps(doc))
    assert verify(want, 0, json.dumps({**doc, "passed": True, "violations": []}))


def test_every_workload_is_correct_on_round_zero(tmp_path, monkeypatch):
    for workload in WORKLOADS:
        workdir = tmp_path / workload
        workdir.mkdir()
        plan, state = _round_zero(workload, 3, workdir, monkeypatch)
        expected, failed, messages, missed, reported = run.check_outputs(plan, state, str(workdir))
        assert not failed and not messages, messages
        assert missed == []
        stats = [e["stats"] for e in expected.values() if "stats" in e]
        shares = run.workload_shares(expected, reported)
        assert len(reported) == len(stats)
        assert shares["samples_checked"] == sum(s["checked"] for s in stats)
        assert shares["violations"] == sum(s["violations"] for s in stats)


def test_tampered_result_counts_as_failed(tmp_path, monkeypatch):
    plan, state = _round_zero("sweep-violations", 3, tmp_path, monkeypatch)
    op = plan["ops"][1]
    path = tmp_path / state["outputs"][op["id"]]["path"]
    doc = json.loads(path.read_text())
    doc["violations"][0]["phi_q"] = "0/1"
    path.write_text(json.dumps(doc))
    _, failed, messages, _, _ = run.check_outputs(plan, state, str(tmp_path))
    assert failed == {(op["id"], 0)}
    assert any("phi_q" in m for m in messages)


def test_determinism_failure_counts_as_failed(tmp_path, monkeypatch):
    plan, state = _round_zero("session", 3, tmp_path, monkeypatch)
    state["failures"].append({"op": plan["ops"][0]["id"], "round": 1, "why": "output differs from round 0"})
    _, failed, _, _, _ = run.check_outputs(plan, state, str(tmp_path))
    assert failed == {(plan["ops"][0]["id"], 1)}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "session", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_names_agree_with_benchmark_json_and_layers_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    rounds = [
        {"phase": phase, "latencies_ns": [10, 20], "cal_ns": [CAL_REF_NS, 2 * CAL_REF_NS]}
        for phase in ("untraced", "traced")
    ]
    state = {
        "rounds": rounds, "peak_rss_kb": 1024, "setup": {"setup_s": 0.1, "cal_ns": CAL_REF_NS},
        "trace": {"totals": {}, "counts": {}, "spans": 0},
    }
    traced = run.per_layer(state, {}, run.workload_shares({}, {}))
    untraced, _ = run.end_to_end(make_plan("session", 1), state, {}, [state["setup"]])
    assert [m["name"] for m in bench["per_layer"]] == list(traced) == list(layers["per_layer"])
    assert [m["name"] for m in bench["end_to_end"]] == list(untraced)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_, u) in traced.items()}
