#!/usr/bin/env python3
"""Rewrite tests/golden/manifest.json and print which cases changed.

The cases are the check-witness commands whose bytes the golden test pins:
the two check-witness ops of the session benchmark plan for seeds 1-12, every
check-witness command in .github/workflows/tests.yml, acceptance criterion 8
(--samples 64), a few default schedules whose off-grid points fail, and two
refusals that exit 2 and write nothing.  Each case's argv is stored as it is
here, with {out} for the output directory, so the test does not read the plan
or the workflow again.  Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/golden_manifest.py
"""

import json
import pathlib
import re
import shlex
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "tests")]

from perfbench.plan import make_plan  # noqa: E402
from test_golden import MANIFEST, load_manifest, run_case  # noqa: E402

WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SESSION_SEEDS = range(1, 13)

EXTRA = {
    "criterion-8": "--alpha geometric:1/2 --beta geometric:1/4 --witness identity --c 1 --samples 64",
    # beta's approximation points leave a shallow grid, and fail or pass there
    "points-identity-fail": "--alpha geometric:7/4 --beta geometric:1:3/4 --witness identity --grid-depth 4",
    "points-scaling-fail": "--alpha geometric:1 --beta geometric:1:2/3 --witness scaling:3/5:backward --grid-depth 5",
    "points-scaling-mixed": "--alpha geometric:3/4 --beta geometric:1:3/4 --witness scaling:3/2:forward --grid-depth 3",
    "points-identity-c3-not-below": "--alpha geometric:1/4 --beta geometric:1:1/2 --witness identity --c 3 --grid-depth 2",
    "refused-c-on-scaling": "--alpha geometric:1 --beta geometric:1 --witness scaling:1/2:forward --c 2 --out {out}/refused.json",
    "refused-zero-samples": "--alpha geometric:1 --beta geometric:1 --witness identity --samples 0 --out {out}/refused.json",
}


def workflow_argvs() -> list:
    """The argv of each check-witness command in the workflow, up to its
    first redirection, pipe or list operator; an --out file goes to {out}."""
    found = []
    for line in WORKFLOW.read_text(encoding="utf-8").splitlines():
        match = re.search(r"python -m lce_lab (check-witness .*?)(?= [12]?>| \|\||\)|$)", line)
        if match:
            argv = shlex.split(match.group(1))
            if "--out" in argv:
                i = argv.index("--out") + 1
                argv[i] = "{out}/" + argv[i]
            if argv not in found:
                found.append(argv)
    return found


def cases() -> list:
    named = []
    for seed in SESSION_SEEDS:
        for op in make_plan("session", seed)["ops"]:
            if op.get("command") == "check-witness":
                named.append((f"session-{seed}-{op['id']}", op["argv"]))
    named += [("workflow " + shlex.join(argv[1:]), argv) for argv in workflow_argvs()]
    named += [(name, ["check-witness", *shlex.split(args)]) for name, args in EXTRA.items()]
    return named


def main() -> int:
    old = {case["name"]: case for case in load_manifest()} if MANIFEST.exists() else {}
    new = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in cases():
            new.append({"name": name, "argv": argv, **run_case(argv, workdir)})
    for case in new:
        if case != old.get(case["name"]):
            print(f"{'changed' if case['name'] in old else 'added'}: {case['name']}")
    for name in old.keys() - {case["name"] for case in new}:
        print(f"removed: {name}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(new, indent=2) + "\n", encoding="utf-8")
    print(f"{len(new)} cases written to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
