"""The exit rule of every command, stated once: an exit 2 writes nothing, so
stdout stays empty and a file already at ``--out`` keeps its bytes; an exit
0 or 1 writes a report, to ``--out`` or else to stdout.

The argument lists are drawn for all seven commands, mostly well formed,
with now and then one value replaced by a malformed one, one flag left out or
an unknown flag added.  ``-h`` is never drawn: help is no report."""

import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce_lab.cli import main
from lce_lab.util import dump_json

OLDER = b"an older file, not a report\n"

MACHINE = {"name": "B3", "entries": [{"code": "0", "output": "1"}, {"code": "10", "output": "10"}, {"code": "11", "output": "101"}]}
GALLERY = [
    {"name": "g", "kind": "geometric", "parameters": {"limit": "1", "ratio": "1/2"}},
    {"name": "e", "kind": "set_real", "parameters": {"set": "evens"}},
]

REALS = ["geometric:1", "geometric:1/2", "geometric:3/4:1/2", "geometric:1/4", "geometric:2", "set:evens", "set:odds"]
RHOS = ["1/2", "1/4", "1/16", "3/4"]
SMALL = ["1", "2", "3", "5", "8"]
# (flag, values, required); a value's {in} is the directory of the input files
COMMANDS = {
    "gallery": [("--config", ["{in}/gallery.json"], True), ("--horizon", SMALL, False)],
    "check-witness": [
        ("--alpha", REALS, True),
        ("--beta", REALS, True),
        ("--witness", ["identity", "scaling:1/2:forward", "scaling:2:backward", "least"], True),
        ("--c", ["1", "2", "3/2"], False),
        ("--samples", ["1", "7", "64"], False),
        ("--grid-depth", ["0", "3", "8"], False),
    ],
    "speed-trace": [
        ("--real", REALS, True),
        ("--speedup", ["identity", "linear:2", "linear:3"], True),
        ("--horizon", SMALL, False),
        ("--rho", RHOS, False),
        ("--format", ["csv", "json"], False),
    ],
    "speed-check": [
        ("--real", REALS, True),
        ("--translation", ["identity", "affine:1/2", "affine:1/3"], True),
        ("--rho", RHOS, True),
        ("--horizon", SMALL, False),
        ("--amplify", ["1", "2", "3"], False),
    ],
    "convert --speedup": [
        ("--real", REALS, True),
        ("--speedup", ["identity", "linear:2", "linear:3"], True),
        ("--probes", ["1/2", "1/4,1/2", "0,3/8,7/8"], False),
        ("--horizon", SMALL, False),
    ],
    "convert --translation": [
        ("--real", REALS, True),
        ("--translation", ["identity", "affine:1/2"], True),
        ("--amplify", ["1", "2"], False),
        ("--horizon", SMALL, False),
    ],
    "cmm-build": [
        ("--B", ["{in}/B.json"], True),
        ("--witness", ["identity", "scaling:1:forward", "least"], True),
        ("--c", ["1", "2", "3"], False),
        ("--alpha", ["set:evens", "geometric:1/2"], False),
    ],
    "cmm-check": [
        ("--A", ["{in}/A.json", "{in}/B.json"], True),
        ("--B", ["{in}/B.json"], True),
        ("--alpha", ["set:evens", "set:odds", "geometric:1/2"], True),
        ("--beta", ["set:evens", "set:odds", "geometric:1/2"], True),
        ("--c", ["1", "2"], False),
        ("--n-max", ["1", "4", "8"], False),
    ],
}
MALFORMED = ["", "x", "1_0", "-1", "0", "4097", "1/0", "0.5", "geometric:", "２", "{in}/missing.json", "{in}/not-json.json"]


@st.composite
def argument_lists(draw):
    """(argv, whether it has ``--out``): one command's flags in a drawn
    order, and in about one list in four a single malformation."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    pairs = [
        [flag, draw(st.sampled_from(values))]
        for flag, values, required in COMMANDS[command]
        if required or draw(st.booleans())
    ]
    pairs = draw(st.permutations(pairs))
    malformation = draw(st.sampled_from(["none"] * 9 + ["value", "value", "drop", "unknown"]))
    if malformation == "value" and pairs:
        draw(st.sampled_from(pairs))[1] = draw(st.sampled_from(MALFORMED))
    elif malformation == "drop" and pairs:
        pairs.remove(draw(st.sampled_from(pairs)))
    elif malformation == "unknown":
        pairs.append(["--bogus", "1"])
    with_out = draw(st.booleans())
    if with_out:
        pairs.append(["--out", "{out}"])
    return [command.split()[0], *(arg for pair in pairs for arg in pair)], with_out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    (directory / "gallery.json").write_text(dump_json(GALLERY))
    (directory / "B.json").write_text(dump_json(MACHINE))
    assert main(["cmm-build", "--B", str(directory / "B.json"), "--witness", "identity", "--out", str(directory / "A.json")]) == 0
    (directory / "not-json.json").write_text('{"entries": [')
    return directory


def test_exit_two_writes_nothing_and_exits_zero_and_one_write_a_report(inputs, tmp_path):
    out = tmp_path / "report.out"
    codes = Counter()

    @settings(max_examples=300)
    @given(argument_lists())
    def check(drawn):
        argv, with_out = drawn
        argv = [arg.replace("{in}", str(inputs)).replace("{out}", str(out)) for arg in argv]
        out.write_bytes(OLDER)
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = main(argv)
        codes[code] += 1
        written = out.read_bytes()
        if code == 2:
            assert stdout.getvalue() == "" and written == OLDER, argv
        else:
            assert code in (0, 1), argv
            report = written if with_out else stdout.getvalue().encode()
            assert report and report != OLDER, argv
            assert not with_out or stdout.getvalue() == "", argv

    check()
    # every outcome is drawn, and refusals are not most of the draws
    assert codes[0] and codes[1] and codes[2] < codes[0] + codes[1], codes
