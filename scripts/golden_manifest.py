#!/usr/bin/env python3
"""Rewrite tests/golden/manifest.json and print which cases changed.

The cases are the CLI commands whose bytes the golden test pins:
- every CLI op of the session benchmark plan for seeds 1-12, all seven
  commands, with the plan named so that its input files are rebuilt;
- every check-witness, speed-trace, speed-check and convert command in
  .github/workflows/tests.yml (none reads an input file);
- every sweep of the sweep-violations benchmark plan for seeds 41-60, once
  each, as check-witness --samples 8192, the benchmark's depth-13 grid;
- every sweep of the sweep-pass benchmark plan for seeds 1-4, once each, as
  check-witness --witness least --grid-depth 14, the default schedule, with
  the plan named where the beta is an omega real, so that its machine file
  is rebuilt;
- acceptance criterion 8 (--samples 64) and a few default schedules whose
  off-grid points fail;
- the refusals that README documents (exit 2, nothing written), and
  README's speed-check on a map that is not a speed-up candidate.
Each case's argv is stored as it is here, with {out} for the output
directory, so the test does not read the workflow again.  The small input
files of the refusals are stored in the manifest; a plan's input files are
not, only a digest of them.  Run from the root of a checkout:

    python3 scripts/golden_manifest.py
"""

import json
import pathlib
import re
import shlex
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import MANIFEST, files_digest, load_manifest, make_plan, plan_files, replay  # noqa: E402

WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SESSION_SEEDS = range(1, 13)
SWEEP_SEEDS = range(41, 61)
PASS_SEEDS = range(1, 5)

FILES = {
    "gallery.json": '[{"name": "g", "kind": "geometric", "parameters": {"limit": "1"}}]',
    "gallery-typo.json": '[{"name": "g", "kind": "geometric", "parameters": {"limit": "1", "ratoi": "1/2"}}]',
    "gallery-no-limit.json": '[{"name": "g", "kind": "geometric", "parameters": {"ratio": "1/2"}}]',
    "gallery-gaps.json": '[{"name": "s", "kind": "staircase", "parameters": {"limit": "1", "gaps": "1/2"}}]',
    "gallery-no-set.json": '[{"name": "e", "kind": "set_real", "parameters": {}}]',
    "gallery-float.json": '[{"name": "g", "kind": "geometric", "parameters": {"limit": 0.5}}]',
    "not-json.json": '{"entries": [',
    "m.json": '{"entries": [{"code": "0", "output": "1"}, {"code": "10", "output": "10"}, {"code": "110", "output": "110"}]}',
    "two-codes.json": '{"entries": [{"code": "0", "output": "1"}, {"code": "10", "output": "10"}]}',
    "bad-code.json": '{"entries": [{"code": "0", "output": "1"}, {"code": "0_1", "output": "1"}]}',
    "prefix.json": '{"entries": [{"code": "0", "output": "1"}, {"code": "01", "output": "1"}]}',
    "machine-name-null.json": '{"name": null, "entries": [{"code": "0", "output": "1"}]}',
    "gallery-name-list.json": '[{"name": ["x"], "kind": "geometric", "parameters": {"limit": "1"}}]',
}

REFUSED = "--out {out}/refused.json"
EXTRA = {
    "criterion-8": "check-witness --alpha geometric:1/2 --beta geometric:1/4 --witness identity --c 1 --samples 64",
    # beta's approximation points leave a shallow grid, and fail or pass there
    "points-identity-fail": "check-witness --alpha geometric:7/4 --beta geometric:1:3/4 --witness identity --grid-depth 4",
    "points-scaling-fail": "check-witness --alpha geometric:1 --beta geometric:1:2/3 --witness scaling:3/5:backward --grid-depth 5",
    "points-scaling-mixed": "check-witness --alpha geometric:3/4 --beta geometric:1:3/4 --witness scaling:3/2:forward --grid-depth 3",
    "points-identity-c3-not-below": "check-witness --alpha geometric:1/4 --beta geometric:1:1/2 --witness identity --c 3 --grid-depth 2",
    "refused-c-on-scaling": f"check-witness --alpha geometric:1 --beta geometric:1 --witness scaling:1/2:forward --c 2 {REFUSED}",
    "refused-zero-samples": f"check-witness --alpha geometric:1 --beta geometric:1 --witness identity --samples 0 {REFUSED}",
    "refused-samples-past-the-depth-bound": f"check-witness --alpha geometric:5/8 --beta geometric:1 --witness least --samples {2**4097} {REFUSED}",
    # README's speed-check on a map that is not a speed-up candidate
    "speed-check-not-a-candidate": "speed-check --real geometric:2 --translation identity --rho 1/1000000 --horizon 4",
    # README's refusals, by command
    "refused-gallery-horizon": f"gallery --config gallery.json --horizon 3000000 {REFUSED}",
    "refused-gallery-not-json": f"gallery --config not-json.json {REFUSED}",
    "refused-gallery-typo": f"gallery --config gallery-typo.json {REFUSED}",
    "refused-gallery-missing-limit": f"gallery --config gallery-no-limit.json {REFUSED}",
    "refused-gallery-gaps-not-a-list": f"gallery --config gallery-gaps.json {REFUSED}",
    "refused-gallery-no-set": f"gallery --config gallery-no-set.json {REFUSED}",
    "refused-gallery-float": f"gallery --config gallery-float.json {REFUSED}",
    "refused-check-least-c": f"check-witness --alpha geometric:1 --beta geometric:1 --witness least --c 2 {REFUSED}",
    "refused-check-witness-fields": f"check-witness --alpha geometric:1 --beta geometric:1 --witness identity:9 {REFUSED}",
    "refused-check-real-fields": f"check-witness --alpha set:evens:x --beta geometric:1 --witness identity {REFUSED}",
    "refused-check-least-past-one": f"check-witness --alpha geometric:5/8 --beta geometric:2 --witness least --samples 1000 {REFUSED}",
    "refused-check-samples-underscore": f"check-witness --alpha geometric:1 --beta geometric:1 --witness identity --samples 1_000 {REFUSED}",
    "refused-check-arabic-indic": f"check-witness --alpha geometric:٣/4 --beta geometric:1 --witness identity {REFUSED}",
    "refused-check-decimal-float": f"check-witness --alpha geometric:1 --beta geometric:1 --witness identity --c 0.5 {REFUSED}",
    "refused-trace-rho": f"speed-trace --real geometric:1 --speedup linear:2 --rho 1 {REFUSED}",
    "refused-trace-horizon": f"speed-trace --real geometric:1 --speedup linear:2 --horizon 4097 {REFUSED}",
    "refused-trace-index-cap": f"speed-trace --real geometric:1 --speedup linear:10000000 --horizon 10 {REFUSED}",
    "refused-trace-too-long-to-print": f"speed-trace --real geometric:1:1/1000000 --speedup linear:2 --horizon 800 {REFUSED}",
    "refused-speed-check-rho": f"speed-check --real geometric:1 --translation affine:1/2 --rho 0 {REFUSED}",
    "refused-speed-check-amplify": f"speed-check --real geometric:1 --translation affine:1/2 --rho 1/2 --amplify 4097 {REFUSED}",
    "refused-convert-both": f"convert --real geometric:1 --speedup linear:2 --translation affine:1/2 {REFUSED}",
    "refused-convert-neither": f"convert --real geometric:1 {REFUSED}",
    "refused-convert-amplify-speedup": f"convert --real geometric:1 --speedup linear:2 --amplify 2 {REFUSED}",
    "refused-convert-probes-translation": f"convert --real geometric:1 --translation affine:1/2 --probes 1/2 {REFUSED}",
    "refused-convert-index-cap": f"convert --real geometric:1 --speedup linear:10000000 --probes 1/2 {REFUSED}",
    "refused-convert-horizon": f"convert --real geometric:1 --translation affine:1/2 --horizon 0 {REFUSED}",
    "refused-cmm-build-not-binary": f"cmm-build --B bad-code.json --witness identity {REFUSED}",
    "refused-cmm-build-prefix": f"cmm-build --B prefix.json --witness identity {REFUSED}",
    "refused-cmm-build-code-cap": f"cmm-build --B two-codes.json --witness identity --c 1099511627776 {REFUSED}",
    "refused-cmm-build-c-on-scaling": f"cmm-build --B two-codes.json --witness scaling:3:forward --c 2 {REFUSED}",
    "refused-cmm-build-not-json": f"cmm-build --B not-json.json --witness identity {REFUSED}",
    "refused-cmm-check-n-max": f"cmm-check --A two-codes.json --B two-codes.json --alpha set:evens --beta set:evens --n-max 4097 {REFUSED}",
    "refused-cmm-check-alpha": f"cmm-check --A two-codes.json --B two-codes.json --alpha geometric:1 --beta set:evens {REFUSED}",
    "refused-cmm-check-beta": f"cmm-check --A two-codes.json --B two-codes.json --alpha set:evens --beta geometric:1 {REFUSED}",
    "refused-cmm-build-name-not-a-string": f"cmm-build --B machine-name-null.json --witness identity {REFUSED}",
    "refused-gallery-name-not-a-string": f"gallery --config gallery-name-list.json {REFUSED}",
}


def workflow_argvs() -> list:
    """The argv of each check-witness, speed-trace, speed-check and convert
    command in the workflow, up to its first redirection, pipe or list
    operator; an --out file goes to {out}.  A command with a shell
    expansion ($) is left out, since only the shell knows its argv."""
    found = []
    for line in WORKFLOW.read_text(encoding="utf-8").splitlines():
        match = re.search(r"python -m lce_lab ((?:check-witness|speed-trace|speed-check|convert) .*?)(?= [12]?>| \|\||\)|$)", line)
        if match and "$" not in match.group(1):
            argv = shlex.split(match.group(1))
            if "--out" in argv:
                i = argv.index("--out") + 1
                argv[i] = "{out}/" + argv[i]
            if argv not in found:
                found.append(argv)
    return found


def sweep_cases() -> list:
    """Each sweep of the sweep-violations plans once, as a check-witness
    command: dyadic_samples(1, 2**length) is the grid dyadic_grid(length, 1)
    that the benchmark checks, and beta is geometric:1.  A scaling witness
    fixes its own constant, so only identity takes the plan's --c."""
    named, seen = [], []
    for seed in SWEEP_SEEDS:
        for op in make_plan("sweep-violations", seed)["ops"]:
            argv = ["check-witness", "--alpha", op["alpha"], "--beta", op["beta"], "--witness", op["witness"]]
            argv += ["--c", op["c"]] if op["witness"] == "identity" else []
            argv += ["--samples", str(1 << op["length"])]
            if argv not in seen:
                seen.append(argv)
                named.append({"name": f"sweep-violations-{seed}-{op['id']}", "argv": argv})
    return named


def least_cases() -> list:
    """Each sweep of the sweep-pass plans once, as a check-witness command
    on the default schedule of the benchmark's depth.  An omega beta reads
    the plan's machine file, which differs by seed, so its case names the
    plan and is kept once per seed."""
    named, seen = [], []
    for seed in PASS_SEEDS:
        for op in make_plan("sweep-pass", seed)["ops"]:
            argv = ["check-witness", "--alpha", op["alpha"], "--beta", op["beta"], "--witness", op["witness"]]
            argv += ["--grid-depth", str(op["length"])]
            plan = f"sweep-pass/{seed}" if op["beta"].startswith("omega:") else None
            if (argv, plan) not in seen:
                seen.append((argv, plan))
                case = {"name": f"sweep-pass-{seed}-{op['id']}", "argv": argv}
                named.append(case if plan is None else {**case, "plan": plan})
    return named


def cases() -> list:
    named = []
    for seed in SESSION_SEEDS:
        for op in make_plan("session", seed)["ops"]:
            if op["kind"] == "cli":
                named.append({"name": f"session-{seed}-{op['id']}", "plan": f"session/{seed}", "argv": op["argv"]})
    named += [{"name": "workflow " + shlex.join(argv[1:]), "argv": argv} for argv in workflow_argvs()]
    named += [{"name": name, "argv": shlex.split(args)} for name, args in EXTRA.items()]
    return named + sweep_cases() + least_cases()


def manifest_text(manifest: dict) -> str:
    """The manifest with one file, plan or case per line."""
    def block(items, open_, close):
        return open_ + "\n" + ",\n".join(items) + "\n" + close

    files = block([f"{json.dumps(k)}: {json.dumps(v)}" for k, v in manifest["files"].items()], "{", "}")
    plans = block([f"{json.dumps(k)}: {json.dumps(v)}" for k, v in manifest["plans"].items()], "{", "}")
    cases = block([json.dumps(case, ensure_ascii=False) for case in manifest["cases"]], "[", "]")
    return f'{{"files": {files},\n"plans": {plans},\n"cases": {cases}}}\n'


def main() -> int:
    old = {case["name"]: case for case in load_manifest()["cases"]} if MANIFEST.exists() else {}
    new_cases = cases()
    plans = dict.fromkeys(case["plan"] for case in new_cases if "plan" in case)
    manifest = {"files": FILES, "plans": {plan: files_digest(plan_files(plan)) for plan in plans}, "cases": new_cases}
    with tempfile.TemporaryDirectory() as workdir:
        manifest["cases"] = [{**case, **got} for case, got in replay(manifest, workdir)]
    for case in manifest["cases"]:
        if case != old.get(case["name"]):
            print(f"{'changed' if case['name'] in old else 'added'}: {case['name']}")
    for name in old.keys() - {case["name"] for case in manifest["cases"]}:
        print(f"removed: {name}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(manifest_text(manifest), encoding="utf-8")
    print(f"{len(manifest['cases'])} cases written to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
