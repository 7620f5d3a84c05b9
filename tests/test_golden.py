"""Golden digests: each case in ``tests/golden/manifest.json`` is a CLI argv
with the exit code and the sha256 of the report bytes and of stderr that it
gave when the manifest was written.  Running every case again in process must
give the same three.  ``scripts/golden_manifest.py`` rewrites the manifest
and prints which cases changed; a change that moves a digest says why in
``CHANGES.md``."""

import hashlib
import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

from lce_lab.cli import main

MANIFEST = pathlib.Path(__file__).resolve().parent / "golden" / "manifest.json"


def digest(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


def run_case(argv, workdir):
    """The exit code and digests of one argv, with ``{out}`` standing for
    ``workdir``.  The report is the ``--out`` file (None when none was
    written), else stdout."""
    argv = [arg.replace("{out}", str(workdir)) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    if "--out" in argv:
        path = pathlib.Path(argv[argv.index("--out") + 1])
        report = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
    else:
        report = stdout.getvalue().encode()
    return {"exit": code, "report": digest(report), "stderr": digest(stderr.getvalue().encode())}


def load_manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_cases_are_named_once():
    names = [case["name"] for case in load_manifest()]
    assert names and len(set(names)) == len(names)


def test_every_case_matches_its_digests(tmp_path):
    changed = []
    for case in load_manifest():
        got = run_case(case["argv"], tmp_path)
        want = {key: case[key] for key in got}
        if got != want:
            changed.append((case["name"], got, want))
    assert not changed, "\n".join(f"{name}: got {got}, manifest {want}" for name, got, want in changed)

