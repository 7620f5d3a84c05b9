import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce_lab import (
    PrefixMachine,
    TranslationWitness,
    check_usch,
    complexity,
    computable_least_witness,
    geometric,
    identity_witness,
    machine_from_dict,
    machine_to_dict,
    measure,
    pad_width,
    scaling_witness,
    set_real,
    truncate,
    uniformize,
)
from lce_lab.errors import (
    ConfigError,
    ConstructionError,
    MachineFormatError,
    PrefixFreeError,
)
from lce_lab.machines import OVERFLOW_ERROR, find_prefix_violation, shortest_codes


def three_code():
    return PrefixMachine("B3", {"0": "1", "10": "10", "11": "101"})


binary = st.text(alphabet="01", min_size=0, max_size=6)

# Neither codes nor outputs; int(s, 2) would take the strings after "012".
NOT_BINARY = ["012", "0_1", " 1", "\uff11", 1, [0, 1], None]


@st.composite
def prefix_free_codes(draw):
    """Grow a code tree by splitting leaves, then keep a nonempty subset."""
    codes = [""]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i = draw(st.integers(min_value=0, max_value=len(codes) - 1))
        parent = codes.pop(i)
        codes.extend([parent + "0", parent + "1"])
    mask = draw(st.lists(st.booleans(), min_size=len(codes), max_size=len(codes)))
    kept = [c for c, keep in zip(codes, mask) if keep]
    return kept or codes[:1]


class TestValidation:
    def test_accepts_prefix_free(self):
        three_code()

    def test_rejects_prefix_pair(self):
        with pytest.raises(PrefixFreeError) as err:
            PrefixMachine("bad", {"0": "1", "01": "1"})
        assert err.value.pair == ("0", "01")

    def test_rejects_non_binary(self):
        with pytest.raises(MachineFormatError):
            PrefixMachine("bad", {"2": "1"})

    # Each table's first bad entry in table order, and the message naming it.
    @pytest.mark.parametrize(
        "table, message",
        [
            ({"0": "1", 1: "1", "11": "2"}, "code must be a binary string, got 1"),
            ({"0": "1", None: "1", 2: "1"}, "code must be a binary string, got None"),
            ({"0": "1", "0_1": "1", "11": [0]}, "code must be a binary string, got '0_1'"),
            ({" 1": "1", "0": "2"}, "code must be a binary string, got ' 1'"),
            ({"0": "1", "\uff11": "1"}, "code must be a binary string, got '\uff11'"),
            ({"0": "1", "10": 1, "11": "2"}, "output must be a binary string, got 1"),
            ({"0": "1", "10": None}, "output must be a binary string, got None"),
            ({"0": "1", "10": [0, 1], "11": "0_1"}, "output must be a binary string, got [0, 1]"),
            ({"0": "1", "10": "0_1", "11": "2"}, "output must be a binary string, got '0_1'"),
            ({"0": "1", "10": " 1"}, "output must be a binary string, got ' 1'"),
            ({"0": "1", "10": "\uff11"}, "output must be a binary string, got '\uff11'"),
            # an entry's code is checked before its output, and before the next entry
            ({"0": "2", "1_": "1"}, "output must be a binary string, got '2'"),
            ({"0": "1", "10": "1", "11": "10", "2": "0"}, "code must be a binary string, got '2'"),
        ],
    )
    def test_first_bad_entry_is_named(self, table, message):
        with pytest.raises(MachineFormatError) as err:
            PrefixMachine("bad", table)
        assert str(err.value) == message

    @given(st.lists(binary, min_size=1, max_size=12, unique=True))
    def test_violation_finder_matches_all_pairs_scan(self, codes):
        brute = any(
            a != b and b.startswith(a) for a in codes for b in codes
        )
        assert (find_prefix_violation(codes) is not None) == brute


class TestMeasure:
    def test_complete_three_code_machine(self):
        assert measure(three_code()) == 1

    def test_empty_machine(self):
        assert measure(PrefixMachine("empty", {})) == 0

    def test_single_code(self):
        assert measure(PrefixMachine("half", {"0": "1"})) == Fraction(1, 2)

    @given(prefix_free_codes())
    def test_kraft_bound(self, codes):
        m = PrefixMachine("m", {c: "1" for c in codes})
        assert measure(m) <= 1


class TestComplexity:
    def test_unique_code(self):
        assert complexity(three_code(), "10") == 2

    def test_missing_output_is_none(self):
        assert complexity(three_code(), "0000") is None

    def test_min_over_competing_codes(self):
        m = PrefixMachine("m", {"0": "111", "10": "111"})
        assert complexity(m, "111") == 1

    def test_shortest_code_whatever_the_table_order(self):
        m = PrefixMachine("m", {"110": "1", "0": "1", "10": "1", "111": "0"})
        assert shortest_codes(m) == {"1": 1, "0": 3}
        assert complexity(m, "1") == 1 and complexity(m, "") is None

    def test_target_must_be_binary(self):
        with pytest.raises(MachineFormatError, match="target string must be a binary string, got '0_1'"):
            complexity(three_code(), "0_1")


class TestUniformize:
    def test_pad_width_from_constant(self):
        assert pad_width(Fraction(1)) == 1
        assert pad_width(Fraction(3)) == 2
        assert pad_width(Fraction(5, 2)) == 2

    def test_identity_on_three_code_machine(self):
        a = uniformize(three_code(), identity_witness(Fraction(1)))
        assert a.table["110"] == "101"
        assert a.table["111"] == "110"  # 5/8 + 1/8 = 3/4
        assert a.table["00"] == "1"
        assert a.table["01"] == "1"  # 1/2 + 1/2 overflows one bit: saturate
        assert a.pad_length == 1

    def test_measure_preserved(self):
        b = three_code()
        assert measure(uniformize(b, identity_witness(Fraction(1)))) == measure(b)

    def test_constant_zero_map_uses_lowest_strings(self):
        w = TranslationWitness("zero", lambda q: Fraction(0), Fraction(1))
        a = uniformize(three_code(), w)
        assert a.table["110"] == "000" and a.table["111"] == "001"

    def test_image_outside_unit_interval_reported_per_code(self):
        w = TranslationWitness("shift", lambda q: q + 1, Fraction(1))
        with pytest.raises(ConstructionError) as err:
            uniformize(three_code(), w)
        assert set(err.value.codes) == {"0", "10", "11"}

    def test_partial_witness_rejected(self):
        w = TranslationWitness("p", lambda q: q, Fraction(1), total=False)
        with pytest.raises(ConfigError):
            uniformize(three_code(), w)

    def test_error_overflow_policy(self):
        with pytest.raises(ConstructionError):
            uniformize(three_code(), identity_witness(Fraction(1)), overflow=OVERFLOW_ERROR)

    def test_error_names_the_first_overflowing_pad(self):
        # 0.10 + pad w fits two bits for w < 2: pad 2 is the first to overflow
        b = PrefixMachine("b", {"0": "00", "1": "10"})
        with pytest.raises(ConstructionError) as err:
            uniformize(b, identity_witness(Fraction(3)), overflow=OVERFLOW_ERROR)
        assert str(err.value) == "pad overflow at code '1' with pad 2" and err.value.codes == ("1",)

    def test_empty_output_saturates_to_empty_outputs(self):
        b = PrefixMachine("b", {"0": "", "1": "1"})
        a = uniformize(b, identity_witness(Fraction(3)))
        assert a.pad_length == 2
        assert a.table == {
            "000": "", "001": "", "010": "", "011": "",
            "100": "1", "101": "1", "110": "1", "111": "1",
        }
        assert measure(a) == measure(b)

    def test_empty_output_overflows_at_pad_one(self):
        # zero bits hold only the value 0, so pad 1 is the first to overflow
        b = PrefixMachine("b", {"0": "1", "1": ""})
        with pytest.raises(ConstructionError) as err:
            uniformize(b, identity_witness(Fraction(1)), overflow=OVERFLOW_ERROR)
        assert str(err.value) == "pad overflow at code '0' with pad 1"
        b = PrefixMachine("b", {"0": "0", "1": ""})
        with pytest.raises(ConstructionError) as err:
            uniformize(b, identity_witness(Fraction(1)), overflow=OVERFLOW_ERROR)
        assert str(err.value) == "pad overflow at code '1' with pad 1" and err.value.codes == ("1",)

    def test_overflow_error_comes_before_codes_outside_the_unit_interval(self):
        # 2 * 0.11 is outside [0,1); 2 * 0.01 = 0.10 overflows two bits at pad 2
        w = TranslationWitness("double", lambda q: q * 2, Fraction(3))
        b = PrefixMachine("b", {"0": "11", "10": "01", "11": "00"})
        with pytest.raises(ConstructionError) as err:
            uniformize(b, w, overflow=OVERFLOW_ERROR)
        assert str(err.value) == "pad overflow at code '10' with pad 2"
        with pytest.raises(ConstructionError) as err:
            uniformize(b, w)
        assert str(err.value) == "translated output outside [0,1) for codes ['0']"

    @given(prefix_free_codes(), st.integers(min_value=1, max_value=4))
    def test_measure_preservation_and_prefix_freeness_generic(self, codes, den):
        table = {c: format(i % 4, "02b") for i, c in enumerate(codes)}
        b = PrefixMachine("b", table)
        w = TranslationWitness(f"shrink{den}", lambda q: q / den, Fraction(1, den) + 1)
        a = uniformize(b, w)  # construction validates prefix-freeness
        assert measure(a) == measure(b)
        assert len(a.table) == len(b.table) * (1 << a.pad_length)


def reference_uniformize(source, witness, overflow):
    """The transport as a plain Fraction loop, one pad at a time."""
    width = pad_width(witness.constant)
    table, bad_codes = {}, []
    for code in sorted(source.table):
        sigma = source.table[code]
        n = len(sigma)
        value = witness.translate(Fraction(int(sigma, 2) if n else 0, 1 << n))
        if value is None or not (0 <= value < 1):
            bad_codes.append(code)
            continue
        base = truncate(value, n)
        for w in range(1 << width):
            shifted = base + w
            if shifted < (1 << n):
                output = format(shifted, f"0{n}b") if n else ""
            elif overflow == "saturate":
                output = "1" * n
            else:
                raise ConstructionError(f"pad overflow at code {code!r} with pad {w}", [code])
            table[code + format(w, f"0{width}b")] = output
    if bad_codes:
        raise ConstructionError(f"translated output outside [0,1) for codes {bad_codes}", bad_codes)
    return table, width


def _transport(build, *args):
    try:
        built = build(*args)
    except ConstructionError as e:
        return ("error", str(e), e.codes)
    return built if isinstance(built, tuple) else (built.table, built.pad_length)


@st.composite
def transport_cases(draw):
    """Random prefix-free machines with outputs of 0-8 bits, and witnesses
    whose images stay inside [0,1), leave it, or overflow the pads."""
    codes = draw(prefix_free_codes())
    outputs = st.text(alphabet="01", max_size=8)
    source = PrefixMachine("b", {c: draw(outputs) for c in codes})
    ratio = draw(st.fractions(min_value="1/8", max_value=2, max_denominator=16))
    limit = draw(st.fractions(min_value="1/16", max_value="3/2", max_denominator=32))
    witness = draw(
        st.sampled_from(
            [
                identity_witness(Fraction(1)),
                identity_witness(Fraction(3)),
                identity_witness(Fraction(7)),
                scaling_witness(ratio, "forward"),
                scaling_witness(ratio, "backward"),
                computable_least_witness(geometric(limit)),
            ]
        )
    )
    return source, witness, draw(st.sampled_from(["saturate", OVERFLOW_ERROR]))


class TestUniformizeAgainstFractionLoop:
    @settings(max_examples=300)
    @given(transport_cases())
    def test_same_table_pad_and_errors(self, case):
        assert _transport(uniformize, *case) == _transport(reference_uniformize, *case)


def fifth_machine():
    """Code 1**(n-1) 0 outputs the first n bits of 1/5, for n = 1..16."""
    return PrefixMachine(
        "fifth", {"1" * (n - 1) + "0": format(truncate(Fraction(1, 5), n), f"0{n}b") for n in range(1, 17)}
    )


class TestTransportPadWidth:
    """The pad width comes from the witness's own constant: scaling by 3 has
    c = 4 and gets 3 pad bits.  The n-bit prefix of 3/5 sits up to 3 units
    above the image of the n-bit prefix of 1/5, which one pad bit cannot reach."""

    def test_scaling_witness_sets_the_pad(self):
        w = scaling_witness(Fraction(3), "forward")
        assert w.constant == 4
        a = uniformize(fifth_machine(), w)
        assert a.pad_length == 3 == pad_width(w.constant)
        assert measure(a) == measure(fifth_machine())

    def test_transport_passes_through_length_16(self):
        b = fifth_machine()
        a = uniformize(b, scaling_witness(Fraction(3), "forward"))
        report = check_usch(a, b, geometric(Fraction(3, 5)), geometric(Fraction(1, 5)), 3, 16)
        assert report.passed and [row.n for row in report.rows] == list(range(1, 17))

    def test_one_pad_bit_is_too_few(self):
        # The width a constant of 1 gives: 3/5's 2-bit prefix is out of reach.
        b = fifth_machine()
        w = dataclasses.replace(scaling_witness(Fraction(3), "forward"), constant=Fraction(1))
        a = uniformize(b, w)
        assert a.pad_length == 1
        assert check_usch(a, b, geometric(Fraction(3, 5)), geometric(Fraction(1, 5)), 3, 16).first_failure == 2


class TestCheckUsch:
    def test_identity_transport_passes_with_pad_constant(self):
        b = three_code()
        a = uniformize(b, identity_witness(Fraction(1)))
        x = set_real(lambda i: i % 2 == 0, Fraction(2, 3), name="evens_real")
        report = check_usch(a, b, x, x, 1, 10)
        assert report.passed and report.first_failure is None
        assert [row.n for row in report.rows] == [1, 2, 3]

    def test_machine_against_itself_with_zero_constant(self):
        b = three_code()
        x = set_real(lambda i: i % 2 == 0, Fraction(2, 3), name="evens_real")
        assert check_usch(b, b, x, x, 0, 8).passed

    def test_missing_codes_fail_at_that_length(self):
        b = three_code()
        empty = PrefixMachine("empty", {})
        x = set_real(lambda i: i % 2 == 0, Fraction(2, 3), name="evens_real")
        report = check_usch(empty, b, x, x, 5, 8)
        assert not report.passed and report.first_failure == 1

    def test_complexity_transfer_along_witness(self):
        # odds-real below evens-real via q -> q/2 with constant 1: the
        # transported machine codes the reduced real's prefixes within one bit.
        alpha = set_real(lambda i: i % 2 == 1, Fraction(1, 3), name="odds_real")
        beta = set_real(lambda i: i % 2 == 0, Fraction(2, 3), name="evens_real")
        witness = TranslationWitness("halve", lambda q: q / 2, Fraction(1))
        from lce_lab.dyadic import truncate

        table = {}
        for n in range(1, 33):
            table["1" * (n - 1) + "0"] = format(truncate(beta.limit, n), f"0{n}b")
        b = PrefixMachine("codes-evens", table)
        a = uniformize(b, witness)
        report = check_usch(a, b, alpha, beta, 1, 32)
        assert report.passed
        assert len(report.rows) == 32
        for row in report.rows:
            assert row.alpha_complexity <= row.beta_complexity + 1


def reference_usch_rows(a_machine, b_machine, alpha, beta, constant, n_max):
    """check_usch's rows with each complexity a scan of the whole table."""

    def scan(machine, tau):
        return min((len(code) for code, output in machine.table.items() if output == tau), default=None)

    rows = []
    for n in range(1, n_max + 1):
        k_beta = scan(b_machine, format(truncate(beta.limit, n), f"0{n}b"))
        if k_beta is not None:
            rows.append((n, scan(a_machine, format(truncate(alpha.limit, n), f"0{n}b")), k_beta, k_beta + constant))
    return rows


@st.composite
def usch_cases(draw):
    """Machines whose outputs are mostly prefixes of alpha or beta, some
    shared by codes of different lengths, some lengths missing, and an n_max
    that can run past every output."""
    limit = st.fractions(min_value="1/64", max_value="15/16", max_denominator=64)
    alpha, beta = geometric(draw(limit)), geometric(draw(limit))

    def machine(name):
        codes = draw(prefix_free_codes())
        lengths = st.integers(1, 7)
        output = (
            st.builds(lambda n: format(truncate(alpha.limit, n), f"0{n}b"), lengths)
            | st.builds(lambda n: format(truncate(beta.limit, n), f"0{n}b"), lengths)
            | binary
        )
        return PrefixMachine(name, {c: draw(output) for c in codes})

    return machine("a"), machine("b"), alpha, beta, draw(st.integers(0, 3)), draw(st.integers(1, 12))


class TestCheckUschAgainstScan:
    @settings(max_examples=300)
    @given(usch_cases())
    def test_rows_match(self, case):
        rows = [(r.n, r.alpha_complexity, r.beta_complexity, r.bound) for r in check_usch(*case).rows]
        assert rows == reference_usch_rows(*case)


class TestMutationControl:
    def test_dropping_a_pad_breaks_measure_equality(self):
        b = three_code()
        a = uniformize(b, identity_witness(Fraction(1)))
        mutated = dict(a.table)
        mutated.pop("111")
        damaged = PrefixMachine("damaged", mutated, pad_length=a.pad_length)
        assert measure(damaged) != measure(b)
        assert measure(a) == measure(b)


class TestMachineFiles:
    def test_round_trip(self):
        doc = machine_to_dict(uniformize(three_code(), identity_witness(Fraction(1))))
        again = machine_from_dict(doc)
        assert again.table == {c["code"]: c["output"] for c in doc["entries"]}
        assert again.pad_length == 1

    def test_entries_sorted_for_determinism(self):
        doc = machine_to_dict(three_code())
        codes = [e["code"] for e in doc["entries"]]
        assert codes == sorted(codes)

    def test_duplicate_codes_rejected(self):
        with pytest.raises(MachineFormatError):
            machine_from_dict(
                {"entries": [{"code": "0", "output": "1"}, {"code": "0", "output": "0"}]}
            )

    def test_prefix_violation_from_file_names_pair(self):
        with pytest.raises(PrefixFreeError, match=r"prefix violation \(0, 01\)"):
            machine_from_dict(
                {"entries": [{"code": "0", "output": "1"}, {"code": "01", "output": "1"}]}
            )

    def test_malformed_documents_rejected(self):
        for doc in ({}, {"entries": "x"}, {"entries": [{"code": "0"}]}):
            with pytest.raises(MachineFormatError):
                machine_from_dict(doc)

    @pytest.mark.parametrize("field", ["code", "output"])
    @pytest.mark.parametrize("bad", NOT_BINARY)
    def test_non_binary_code_or_output_rejected(self, field, bad):
        entry = {"code": "10", "output": "1", field: bad}
        with pytest.raises(MachineFormatError, match="must be a binary string"):
            machine_from_dict({"entries": [{"code": "0", "output": "1"}, entry]})
