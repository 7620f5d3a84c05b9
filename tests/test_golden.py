"""Golden digests: each case in ``tests/golden/manifest.json`` is a CLI argv
with the exit code and the sha256 of the report bytes and of stderr that it
gave when the manifest was written.  Running every case again in process must
give the same three.  ``scripts/golden_manifest.py`` rewrites the manifest
and prints which cases changed; a change that moves a digest says why in
``CHANGES.md``.

The cases run in order, in one working directory that holds the manifest's
``files``.  A case with a ``plan`` (``session/3``) first gets that benchmark
plan's input files, rebuilt by ``perfbench/plan.py``; the manifest keeps only
their digest, so a change to the plan reads as changed inputs, not as changed
reports.  A case may read what an earlier case wrote, as a plan's
``cmm-check`` reads its ``cmm-build``."""

import hashlib
import importlib.util
import io
import json
import os
import pathlib
from contextlib import redirect_stderr, redirect_stdout

from lce_lab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"


def _plan_module():
    spec = importlib.util.spec_from_file_location("perfbench_plan", ROOT / "perfbench" / "plan.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_plan = _plan_module().make_plan


def digest(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


def plan_files(plan: str) -> dict:
    """The input files of ``workload/seed``'s plan, by relative path."""
    workload, _, seed = plan.partition("/")
    return make_plan(workload, int(seed))["files"]


def files_digest(files: dict) -> str:
    return digest(json.dumps(files, sort_keys=True).encode())


def write_files(files: dict, workdir) -> None:
    """Each file under ``workdir``: a text as it is, a plan's document as
    the benchmark writes it."""
    for rel, doc in files.items():
        path = pathlib.Path(workdir, rel)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc, indent=1), encoding="utf-8")


def run_case(argv, workdir):
    """The exit code and digests of one argv, with ``{out}`` standing for
    ``workdir``.  The report is the ``--out`` file (None when none was
    written; an older file at that path is removed first), else stdout."""
    argv = [arg.replace("{out}", str(workdir)) for arg in argv]
    path = pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if path is not None:
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    if path is not None:
        report = path.read_bytes() if path.exists() else None
    else:
        report = stdout.getvalue().encode()
    return {"exit": code, "report": digest(report), "stderr": digest(stderr.getvalue().encode())}


def replay(manifest, workdir) -> list:
    """(case, what it gives now) for every case, run in order with
    ``workdir`` as the working directory."""
    write_files(manifest["files"], workdir)
    results, written = [], None
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for case in manifest["cases"]:
            plan = case.get("plan")
            if plan is not None and plan != written:
                write_files(plan_files(plan), workdir)
                written = plan
            results.append((case, run_case(case["argv"], workdir)))
    finally:
        os.chdir(cwd)
    return results


def load_manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_cases_are_named_once():
    names = [case["name"] for case in load_manifest()["cases"]]
    assert names and len(set(names)) == len(names)


def test_every_plan_case_names_a_digested_plan():
    manifest = load_manifest()
    assert {case["plan"] for case in manifest["cases"] if "plan" in case} == set(manifest["plans"])


def test_plan_inputs_match_their_digests():
    changed = [plan for plan, want in load_manifest()["plans"].items() if files_digest(plan_files(plan)) != want]
    assert not changed, f"benchmark plan inputs changed: {changed}"


def test_every_case_matches_its_digests(tmp_path):
    changed = []
    for case, got in replay(load_manifest(), tmp_path):
        want = {key: case[key] for key in got}
        if got != want:
            changed.append((case["name"], got, want))
    assert not changed, "\n".join(f"{name}: got {got}, manifest {want}" for name, got, want in changed)
