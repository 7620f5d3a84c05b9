import json
import os
import stat
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce_lab.errors import ConfigError
from lce_lab import util
from lce_lab.util import ceil_log2, dump_json, parse_rational, rational_str


class TestParseRational:
    @pytest.mark.parametrize(
        "raw,expect",
        [
            ("2/3", Fraction(2, 3)),
            ("-7/2", Fraction(-7, 2)),
            ("5", Fraction(5)),
            (4, Fraction(4)),
            ({"num": "5", "den": "8"}, Fraction(5, 8)),
            ({"num": 5, "den": 8}, Fraction(5, 8)),
            (" 1/3 ", Fraction(1, 3)),
        ],
    )
    def test_accepted_forms(self, raw, expect):
        assert parse_rational(raw) == expect

    @pytest.mark.parametrize(
        "raw", ["0.5", "1e-3", "a/b", {"num": "1"}, None, True, [1, 2], "1/0"]
    )
    def test_rejected_forms(self, raw):
        with pytest.raises(ConfigError):
            parse_rational(raw)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(rational_str(q)) == q


class TestCeilLog2:
    @pytest.mark.parametrize(
        "x,expect",
        [
            (Fraction(1), 0),
            (Fraction(2), 1),
            (Fraction(12), 4),
            (Fraction(5, 2), 2),
            (Fraction(1, 3), -1),
            (Fraction(1, 4), -2),
            (Fraction(1, 1024), -10),
        ],
    )
    def test_values(self, x, expect):
        assert ceil_log2(x) == expect

    @given(st.fractions(min_value="1/100000", max_value=100000).filter(lambda q: q > 0))
    def test_tight_bracket(self, x):
        t = ceil_log2(x)
        two_t = Fraction(2) ** t
        assert two_t >= x
        assert two_t / 2 < x

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            ceil_log2(Fraction(0))


def stdlib_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Quotes, backslashes, control characters, '%', non-ASCII, astral and
# lone-surrogate characters, next to arbitrary ones.
_special_chars = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "%", "é", "\u2028", "\U0001F600", "\ud800"]
)
_text = st.text(st.one_of(_special_chars, st.characters()), max_size=6)
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(10**60), 10**60), _text)


@st.composite
def _row_lists(draw):
    """Flat dicts sharing one key set, sometimes with a ragged row mixed in."""
    key_text = st.one_of(_text, st.sampled_from(["%", "%s", "a%%b", "q"]))
    keys = draw(st.lists(key_text, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({key: _scalars for key in keys}), min_size=1, max_size=6))
    if draw(st.booleans()):
        ragged = draw(st.dictionaries(_text, _scalars, max_size=4))
        rows.insert(draw(st.integers(0, len(rows))), ragged)
    return rows


_documents = st.recursive(
    st.one_of(_scalars, _row_lists()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_text, inner, max_size=4)),
    max_leaves=24,
)


class IntSubclass(int):
    pass


class TestDumpJson:
    """dump_json writes exactly the bytes of json.dumps(sort_keys=True, indent=2)."""

    def test_sorted_keys_and_newline(self):
        text = dump_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    @settings(max_examples=400)
    @given(_documents)
    def test_matches_stdlib(self, doc):
        assert dump_json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [{}], "d": [[]]},
            [{"a": 1}, {"a": [1]}],
            [{"a": 1}, {"b": 1}],
            [{"a": 1}, {"a": 2, "b": 3}],
            [{"%s": "%", "%%": None, "k%d": True}, {"%s": "x", "%%": -5, "k%d": False}],
            {"rows": [{"n": 10**100, "m": -(10**100)}]},
        ],
    )
    def test_edge_shapes(self, doc):
        assert dump_json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"x": 1.5},
            [{"a": 0.25}, {"a": 1}],
            (1, "a"),
            {"t": (1, 2)},
            {1: "a", 2: "b"},
            [{1: "a"}, {1: "b"}],
            {"n": IntSubclass(3)},
            [{"n": IntSubclass(3)}, {"n": 4}],
            {True: 1, False: 2},
        ],
    )
    def test_other_types_get_the_stdlib_output(self, doc):
        assert dump_json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {1: "a", "b": 2},
            [{1: "a", "b": 2}],
            {True: 1, None: 2},
            {"x": object()},
            {"x": {1, 2}},
        ],
    )
    def test_other_types_raise_the_stdlib_error(self, doc):
        with pytest.raises(TypeError) as stdlib_error:
            stdlib_json(doc)
        with pytest.raises(TypeError) as ours:
            dump_json(doc)
        assert str(ours.value) == str(stdlib_error.value)

    def test_circular_document_raises_the_stdlib_error(self):
        doc: dict = {"a": []}
        doc["a"].append(doc)
        with pytest.raises(ValueError, match="Circular reference detected"):
            dump_json(doc)

    def test_report_shapes_skip_the_stdlib_encoder(self, monkeypatch):
        docs = [
            {
                "max_ratio_seen": "3/2",
                "passed": False,
                "violations": [
                    {"q": "1/2", "reason": "gap_bound_failed", "phi_q": "1/2", "bound": "1/4"},
                    {"q": "3/4", "reason": "not_below_alpha", "phi_q": "3/4", "bound": None},
                ],
                "witness": "identity",
            },
            {"name": "B", "entries": [{"code": "0", "output": "1"}], "pad_length": 1},
            {"rows": [{"n": 1, "bound": None, "ok": True}, {"n": 2, "bound": 3, "ok": False}]},
        ]
        expected = [stdlib_json(doc) for doc in docs]

        def refuse(*args, **kwargs):
            raise AssertionError("fell back to json.dumps")

        monkeypatch.setattr(util.json, "dumps", refuse)
        assert [dump_json(doc) for doc in docs] == expected


class TestAtomicWriteText:
    def test_creates_and_replaces(self, tmp_path):
        path = tmp_path / "report.json"
        util.atomic_write_text(str(path), "one\n")
        assert path.read_bytes() == b"one\n"
        util.atomic_write_text(str(path), "two\n")
        assert path.read_bytes() == b"two\n"
        util.atomic_write_text(str(path), "two")  # a prefix of the old bytes
        assert path.read_bytes() == b"two"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_identical_file_is_left_alone(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        util.atomic_write_text(str(path), '{"a": 1}\n')
        before = path.stat()

        def refuse(*args, **kwargs):
            raise AssertionError("rewrote an identical file")

        monkeypatch.setattr(util.tempfile, "mkstemp", refuse)
        util.atomic_write_text(str(path), '{"a": 1}\n')
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        path, plain = tmp_path / "report.json", tmp_path / "plain.json"
        old = os.umask(umask)
        try:
            util.atomic_write_text(str(path), "one\n")
            created = stat.S_IMODE(path.stat().st_mode)
            util.atomic_write_text(str(path), "two\n")
            replaced = stat.S_IMODE(path.stat().st_mode)
            with open(plain, "w"):
                pass
        finally:
            assert os.umask(old) == umask  # the writer restored the umask
        assert created == replaced == stat.S_IMODE(plain.stat().st_mode) == mode

    def test_same_size_other_bytes_are_replaced(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b"\r\n")
        util.atomic_write_text(str(path), "\n\n")
        assert path.read_bytes() == b"\n\n"
