import itertools
import json
import math
import os
import stat
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce_lab import RatioTrace, TotalSpeedupReport, UschReport, affine_toward, check_total_speedup, cli, geometric, linear_speedup, liminf_record, util
from lce_lab.errors import ConfigError
from lce_lab.machines import UschRow
from lce_lab.util import Rows, ceil_log2, dump_json, fraction_texts, parse_rational, rational_str


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
            ("+3/-6", Fraction(-1, 2)),
            ({"num": " -0 ", "den": "+7"}, Fraction(0)),
        ],
    )
    def test_accepted_forms(self, raw, expect):
        assert parse_rational(raw) == expect

    @pytest.mark.parametrize(
        "raw",
        [
            "0.5", "1e-3", "a/b", {"num": "1"}, None, True, [1, 2], "1/0",
            # int() takes each of these; the wire form is a sign and ASCII digits only
            "1_000", "1/2_0", "\uff11/\uff12", "\u0663/4", "1/\u0663", "\u00b2", {"num": "1_0", "den": "3"},
            "+-1", "--1", "+", "", "1 2", "\u20031/2", "0x10", "1/ ",
        ],
    )
    def test_rejected_forms(self, raw):
        with pytest.raises(ConfigError):
            parse_rational(raw)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(rational_str(q)) == q

    @given(st.text(max_size=6))
    def test_integer_text_is_a_sign_and_ascii_digits(self, text):
        # the one integer reader accepts exactly what the ASCII pattern does
        body = text.strip(" \t\n\r\f\v")
        unsigned = body[1:] if body[:1] in "+-" and body else body
        if unsigned and all(ch in "0123456789" for ch in unsigned):
            assert util.parse_int(text) == int(body)
        else:
            with pytest.raises(ConfigError, match="not an exact integer"):
                util.parse_int(text)


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


def fraction_loop(first, step, count, den):
    return [rational_str(Fraction(first + j * step, den)) for j in range(count)]


_dens = st.one_of(
    st.just(1),
    st.builds(lambda k: 1 << k, st.integers(0, 64)),
    st.builds(lambda k, odd: odd << k, st.integers(0, 64), st.sampled_from([3, 5, 9, 105])),
    # primes above any count drawn: an odd period no class can use
    st.sampled_from([307, 1009, (1 << 61) - 1]),
)
_steps = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-(10**6), 10**6).map(lambda n: 2 * n),
    st.integers(-(10**6), 10**6).map(lambda n: 2 * n + 1),
    st.integers(-(1 << 80), 1 << 80),
)


class TestFractionTexts:
    """fraction_texts gives the Fraction loop's texts, one class of j at a time."""

    @settings(max_examples=400)
    @given(st.integers(-(10**9), 10**9) | st.integers(-3, 0), _steps, st.integers(0, 300), _dens)
    def test_matches_the_fraction_loop(self, first, step, count, den):
        assert fraction_texts(first, step, count, den) == fraction_loop(first, step, count, den)

    @pytest.mark.parametrize(
        "args, gcds",
        [
            ((6, 0, 5, 4), range(0, 1)),  # a constant column
            ((-48, 1, 200, 3 << 4), range(1, 30)),  # by parity and mod 3: one gcd per class
            ((-5, 3, 200, 1009), range(200, 203)),  # a period above the count: one gcd per cell
        ],
        ids=["constant", "classes", "per-cell"],
    )
    def test_each_path(self, monkeypatch, args, gcds):
        calls = []

        def counted(*values):
            calls.append(values)
            return math.gcd(*values)

        monkeypatch.setattr(util, "gcd", counted)
        assert fraction_texts(*args) == fraction_loop(*args)
        assert len(calls) in gcds

    @settings(max_examples=400)
    @given(
        st.sampled_from([1, 2, 4, 5, 10, 20, 25, 50, 100, -1, -2, -4, -10, 3, 14]),
        st.one_of(
            st.integers(-250, -1),
            st.just(0),
            st.sampled_from([98, 99, 100, 101, 199, 200, 201, 9999, 10000, 10001]),
            st.integers(0, 10**6),
            st.integers(0, 1 << 80),
        ),
        st.sampled_from([0, 1, 1000]) | st.integers(0, 300),
        st.sampled_from(["", "/3", "/65536"]),
    )
    def test_progressions_match_the_plain_texts(self, step, start, count, suffix):
        # steps of 1 to 10 that divide 100 take the decimal blocks from 200 cells in
        # full hundreds; 3, 14 and steps of 20 to 100 keep the plain texts
        expected = [f"{v}{suffix}" for v in range(start, start + count * step, step)]
        assert util._progression_texts(start, step, count, suffix) == expected

    def test_block_path(self, monkeypatch):
        blocks = []

        def counted(lows):
            blocks.append(lows)
            return itertools.cycle(lows)

        monkeypatch.setattr(util, "cycle", counted)
        assert fraction_texts(4096, 1, 4096, 8192) == fraction_loop(4096, 1, 4096, 8192)
        assert blocks


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


@st.composite
def _rows_tables(draw):
    """A ``Rows`` whose columns are each all None, str (some needing escapes),
    str mixed with None, int, bool, any scalars, or one str or None repeated;
    sometimes no row at all."""
    keys = draw(st.lists(st.one_of(_text, st.sampled_from(["q", "phi_q", "%s"])), max_size=4, unique=True))
    count = draw(st.integers(0, 5))
    kinds = {
        "null": st.none(),
        "str": _text,
        "plain": st.sampled_from(["1/2", "-3", "gap_bound_failed", ""]),
        "str-or-null": st.one_of(st.none(), _text),
        "int": st.integers(-(10**30), 10**30),
        "bool": st.booleans(),
        "scalar": _scalars,
    }
    columns = {}
    for key in keys:
        kind = draw(st.sampled_from(sorted(kinds) + ["constant"]))
        if kind == "constant":
            columns[key] = [draw(st.one_of(st.none(), _text))] * count
        else:
            columns[key] = draw(st.lists(kinds[kind], min_size=count, max_size=count))
    return Rows(columns)


def as_lists(doc):
    """``doc`` with each ``Rows`` replaced by the list of dicts it stands
    for, built from its columns (a ``Rows`` is not iterated)."""
    if isinstance(doc, Rows):
        columns = doc._columns
        return [dict(zip(columns, values)) for values in zip(*columns.values())]
    if isinstance(doc, dict):
        return {key: as_lists(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [as_lists(item) for item in doc]
    return doc


_rows_documents = st.recursive(
    st.one_of(_scalars, _rows_tables()),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_text, inner, max_size=3)),
    max_leaves=12,
)


class StrSubclass(str):
    pass


A = "a"  # one object, so that a column of it starts and ends with the same cell


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
            [{"a": None}, {"a": None}],
            [{"a": None, "b": None}],
            [{"s": "0101", "t": "x"}, {"s": 'a"b', "t": "y"}, {"s": "", "t": "z"}],
        ],
    )
    def test_edge_shapes(self, doc):
        assert dump_json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize(
        "value, kind",
        [(1.5, "float"), ((1, 2), "tuple"), ({1, 2}, "set"), (object(), "object"), (IntSubclass(3), "IntSubclass")],
        ids=["float", "tuple", "set", "object", "int-subclass"],
    )
    @pytest.mark.parametrize(
        "place",
        [
            lambda v: v,
            lambda v: {"x": v},
            lambda v: [1, v],
            lambda v: {"v": Rows({"q": [v]})},
            lambda v: {"v": Rows({"q": ["1/2", v], "r": [None, None]})},
            lambda v: Rows({"n": [1, v]}),
        ],
        ids=["plain", "dict-value", "list-item", "column-of-one", "str-column", "int-column"],
    )
    def test_foreign_values_are_refused_by_type(self, value, kind, place):
        with pytest.raises(TypeError) as refused:
            dump_json(place(value))
        assert str(refused.value) == f"Object of type {kind} is not JSON serializable"

    @pytest.mark.parametrize("value", [{1, 2}, object()])
    def test_refusal_is_the_stdlib_error(self, value):
        with pytest.raises(TypeError) as stdlib_error:
            stdlib_json({"x": value})
        with pytest.raises(TypeError) as ours:
            dump_json({"x": value})
        assert str(ours.value) == str(stdlib_error.value)

    @pytest.mark.parametrize(
        "key, kind",
        [(1, "int"), (True, "bool"), (None, "NoneType"), ((1,), "tuple"), (StrSubclass("k"), "StrSubclass")],
        ids=["int", "bool", "none", "tuple", "str-subclass"],
    )
    @pytest.mark.parametrize(
        "place",
        [
            lambda k: {k: 1},
            lambda k: {"a": 1, k: 2},
            lambda k: [{k: "x"}],
            lambda k: {"v": Rows({k: ["x"]})},
            lambda k: {"v": Rows({"a": ["x"], k: [None]})},
        ],
        ids=["dict", "dict-after-str", "nested-dict", "column", "column-after-str"],
    )
    def test_non_str_keys_are_refused_by_type(self, key, kind, place):
        with pytest.raises(TypeError) as refused:
            dump_json(place(key))
        assert str(refused.value) == f"keys must be str, not {kind}"

    def test_circular_document_raises_recursion_error(self):
        doc: dict = {"a": []}
        doc["a"].append(doc)
        with pytest.raises(RecursionError):
            dump_json(doc)


class TestRows:
    """A ``Rows`` is a column table, not a list, and ``dump_json`` writes it
    as ``json.dumps`` writes the list of dicts it stands for."""

    ROWS = [
        {"q": "1/4", "reason": "gap_bound_failed", "phi_q": "1/4", "bound": "1/8"},
        {"q": "1/2", "reason": "not_below_alpha", "phi_q": "3/2", "bound": None},
        {"q": "3/4", "reason": "undefined", "phi_q": None, "bound": None},
    ]

    def table(self):
        return Rows({key: [row[key] for row in self.ROWS] for key in self.ROWS[0]})

    def test_length_and_truth(self):
        rows = self.table()
        assert len(rows) == 3 and rows and not Rows({}) and not Rows({"q": []})
        assert as_lists(rows) == self.ROWS

    def test_not_indexed_or_iterated(self):
        rows = self.table()
        for read in (lambda: rows[0], lambda: rows[1:], lambda: iter(rows), lambda: list(rows)):
            with pytest.raises(TypeError, match="'Rows' object is not (subscriptable|iterable)"):
                read()

    def test_equality_by_columns(self):
        rows = self.table()
        assert rows == self.table() and rows == Rows({key: tuple(row[key] for row in self.ROWS) for key in self.ROWS[0]})
        assert rows != self.ROWS and self.ROWS != rows and Rows({}) != [] and [] != Rows({"q": []})
        assert Rows({}) == Rows({}) and Rows({}) != Rows({"q": []})
        assert Rows({"a": [1]}) != Rows({"b": [1]}) and Rows({"a": [1]}) == Rows({"a": (1,)})
        assert Rows({"a": [1], "b": [2]}) != Rows({"b": [2], "a": [3]}) and Rows({"a": [1]}) != Rows({"a": [1, 1]})
        assert rows != tuple(self.ROWS) and rows != "rows" and rows != None  # noqa: E711

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(self.table())

    def test_columns_of_one_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            Rows({"a": [1, 2], "b": [1]})

    @settings(max_examples=400)
    @given(_rows_documents)
    def test_matches_the_list_and_stdlib(self, doc):
        assert dump_json(doc) == dump_json(as_lists(doc)) == stdlib_json(as_lists(doc))

    @pytest.mark.parametrize(
        "doc",
        [
            Rows({}),
            {"v": Rows({"q": []})},
            {"v": Rows({"q": ["1/2"]})},
            {"v": Rows({"a": [None, None], "b": [None, None]})},
            {"v": Rows({"a": ["x", None], "b": [None, 'a"b']})},
            {"v": Rows({"s": ["\x7f", "\\", "\n", "é", "\U0001F600"]})},
            # one escaped character in an otherwise plain column: DEL, a control character, a quote, a backslash
            {"v": Rows({"s": ["1/2", "a\x7f"], "t": ["~", "x\x1f"], "u": ['"', "b"], "w": ["\\", "c"]})},
            {"v": Rows({"n": [1, -(10**40)], "ok": [True, False]})},
            {"v": Rows({"s": [StrSubclass("a"), StrSubclass('"')]})},
            {"v": [Rows({"a": [1]}), [Rows({"b": ["x"]})]]},
            {"v": Rows({"s": [StrSubclass("a"), None]})},
            # constant columns, written once into the row text
            {"v": Rows({"q": ["1/2", "3/4", "1"], "reason": ["gap_bound_failed"] * 3})},
            {"v": Rows({"q": ["1", "2", "3"], "s": ['a"b'] * 3, "t": ["é"] * 3, "u": ["\x7f"] * 3})},
            {"v": Rows({"s": [A, StrSubclass(A), A], "t": [A, A, StrSubclass(A)]})},
            {"v": Rows({"q": ["1/2"], "reason": ["x"], "z": [None]})},
            {"v": Rows({"a": ["x"] * 4, "b": [None] * 4, "c": ['"'] * 4})},
        ],
    )
    def test_edge_tables(self, doc):
        assert dump_json(doc) == dump_json(as_lists(doc)) == stdlib_json(as_lists(doc))

    @pytest.mark.parametrize("column", [[[1]], [{"a": None}], ["x", b"x"]], ids=["list", "dict", "bytes"])
    def test_cells_are_scalars(self, column):
        with pytest.raises(TypeError, match=f"^Object of type {type(column[-1]).__name__} is not JSON serializable$"):
            dump_json({"rows": Rows({"q": column})})

    def test_constant_column_is_no_piece_per_row(self):
        columns = {"q": ["1/2", "3/4", "1"], "reason": ["gap_bound_failed"] * 3}
        assert len(util._json_table(columns, "\n  ")) == 2 * 3 + 1

    def test_every_report_table_is_rows(self, tmp_path):
        machine = str(tmp_path / "B.json")
        with open(machine, "w") as fh:
            json.dump({"entries": [{"code": "0", "output": "1"}, {"code": "10", "output": "10"}, {"code": "11", "output": "0"}]}, fh)
        runs = [
            (["check-witness", "--alpha", "geometric:2", "--beta", "geometric:1", "--witness", "identity", "--grid-depth", "13"], [("violations",)]),
            (["cmm-build", "--B", machine, "--witness", "identity"], [("entries",)]),
            (["cmm-check", "--A", machine, "--B", machine, "--alpha", "set:evens", "--beta", "set:evens", "--n-max", "6"], [("rows",)]),
            (["speed-trace", "--real", "geometric:1", "--speedup", "linear:2", "--format", "json"], [("entries",)]),
            # the machine's Omega attains its limit: probes there are rows, the ones below it trace entries
            (["speed-check", "--real", f"omega:{machine}", "--translation", "affine:1/2", "--rho", "1/2"], [("violations",), ("trace", "entries")]),
            (["convert", "--real", "geometric:1", "--speedup", "linear:2", "--probes", "1/2,1"], [("mappings",)]),
            (["convert", "--real", "geometric:1", "--translation", "affine:1/2"], [("mappings",)]),
        ]
        docs = [cli_report(argv) for argv, _ in runs]
        for doc, (argv, paths) in zip(docs, runs):
            for path in paths:
                table = doc
                for key in path:
                    table = table[key]
                assert type(table) is Rows and table, (argv, path)
        assert [dump_json(doc) for doc in docs] == [stdlib_json(as_lists(doc)) for doc in docs]

    @pytest.mark.parametrize(
        "make, empty",
        [
            (lambda: UschReport(1, [UschRow(1, None, 2, 3), UschRow(2, 1, 1, 2), UschRow(3, None, 0, 1)]).to_json_dict(), []),
            (lambda: UschReport(0).to_json_dict(), ["rows"]),
            (lambda: RatioTrace().to_json_dict(), ["entries"]),
            (lambda: liminf_record(geometric(Fraction(1), Fraction(2, 3)), linear_speedup(3), 600).to_json_dict(), []),
            (lambda: TotalSpeedupReport(Fraction(1, 2), RatioTrace(), [(Fraction(1, 2), "undefined"), (Fraction(-3), "not_monotone")]).to_json_dict(), ["entries"]),
            (lambda: check_total_speedup(geometric(Fraction(1)), affine_toward(Fraction(1), Fraction(1, 2)), Fraction(1, 2), 8).to_json_dict(), ["violations"]),
            (lambda: cli_report(["convert", "--real", "geometric:1", "--speedup", "linear:2", "--probes", "1,1/2,2,0"]), []),
        ],
        ids=["usch-none", "usch-empty", "trace-empty", "trace-long", "speed-violations", "speed-valid", "convert-none"],
    )
    def test_reporters_match_the_stdlib(self, make, empty):
        doc = make()
        text = dump_json(doc)
        assert text == stdlib_json(as_lists(doc))
        for key in empty:
            assert f'"{key}": []' in text


def cli_report(argv) -> dict:
    """The document one ``cli.main`` run hands to ``dump_json``."""
    docs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "dump_json", lambda doc: docs.append(doc) or "")
        cli.main(argv)
    [doc] = docs
    return doc


_LONG = "".join(map(str, range(30_000)))  # 138,890 characters: three 64 Ki slices
_STRADDLE = "a" * 65_535 + "é" + "b" * 70_000


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

    @pytest.mark.parametrize(
        "old, text",
        [
            (_LONG, _LONG[:-1] + "!"),
            (_LONG, "!" + _LONG[1:]),
            (_LONG + "!", _LONG),
            (_LONG, _LONG + "!"),
            # a two-byte character across the file's first 64 KiB boundary
            (_STRADDLE, _STRADDLE),
            (_STRADDLE, _STRADDLE[:-1] + "!"),
            (_STRADDLE.replace("é", "e!"), _STRADDLE),
            ("é" * 70_000, "é" * 70_000),
            ("é" * 70_000, "é" * 69_999 + "e"),
            ("é" * 70_000 + "!", "é" * 70_000),
            ("é" * 70_000, "é" * 70_000 + "!"),
        ],
        ids=[
            "last-byte", "first-byte", "old-longer", "text-longer", "straddle-same", "straddle-last-byte",
            "straddle-shifted", "two-byte-same", "two-byte-last", "two-byte-old-longer", "two-byte-text-longer",
        ],
    )
    def test_texts_across_slices(self, tmp_path, old, text):
        path = tmp_path / "report.json"
        path.write_bytes(old.encode())
        before = path.stat()
        util.atomic_write_text(str(path), text)
        assert path.read_bytes() == text.encode()
        assert (path.stat().st_ino == before.st_ino) is (old == text)
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("text", ["a\ud800b", "a" * 70_000 + "\ud800"], ids=["first-slice", "second-slice"])
    def test_unencodable_text_leaves_the_old_file(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_bytes(b"old\n")
        with pytest.raises(UnicodeEncodeError):
            util.atomic_write_text(str(path), text)
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
