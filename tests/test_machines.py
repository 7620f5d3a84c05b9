import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lce_lab import (
    PrefixMachine,
    TranslationWitness,
    affine_witness,
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
    DomainError,
    MachineFormatError,
    PrefixFreeError,
)
from lce_lab import machines
from lce_lab.machines import find_prefix_violation, shortest_codes
from lce_lab.util import Rows, dump_json


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


def neighbour_scan(codes):
    """The first (shorter, longer) neighbours in sorted order where one prefixes the other."""
    ordered = sorted(codes)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            return (a, b)
    return None


class TestPrefixViolationAgainstScan:
    @settings(max_examples=300)
    @given(st.lists(binary, max_size=16))
    def test_same_first_pair_as_a_neighbour_scan(self, codes):
        assert find_prefix_violation(codes) == neighbour_scan(codes)


class TestOneLengthShortcut:
    """The constructor skips the neighbour scan when every code has one
    length; any other table raises the scan's first pair."""

    @given(st.integers(min_value=0, max_value=6).flatmap(lambda k: st.sets(st.text(alphabet="01", min_size=k, max_size=k), max_size=16)))
    def test_distinct_codes_of_one_length_never_raise(self, codes):
        assert set(PrefixMachine("b", dict.fromkeys(codes, "1")).table) == codes

    @settings(max_examples=300)
    @given(st.sets(binary, max_size=16))
    @example({"0", "01", "1", "10"})
    @example({"", "0", "1"})
    def test_mixed_lengths_raise_the_neighbour_scans_first_pair(self, codes):
        pair = neighbour_scan(codes)
        if pair is None:
            assert set(PrefixMachine("b", dict.fromkeys(codes, "1")).table) == codes
        else:
            with pytest.raises(PrefixFreeError) as err:
                PrefixMachine("b", dict.fromkeys(codes, "1"))
            assert err.value.pair == pair

    def test_a_code_and_its_extension_still_raise(self):
        with pytest.raises(PrefixFreeError) as err:
            PrefixMachine("b", {"0": "1", "01": "1"})
        assert err.value.pair == ("0", "01")


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


def shortest_by_loop(table):
    """Each output's shortest code length, as a plain loop over every code."""
    best = {}
    for code, output in table.items():
        best[output] = min(best.get(output, len(code)), len(code))
    return best


class TestShortestCodesAgainstLoop:
    @settings(max_examples=300)
    @given(prefix_free_codes(), st.data())
    def test_repeated_outputs_keep_their_shortest_code(self, codes, data):
        # few distinct outputs, so most are shared by codes of several lengths
        table = {c: data.draw(st.sampled_from(["", "0", "1", "01"])) for c in codes}
        assert shortest_codes(PrefixMachine("m", table)) == shortest_by_loop(table)


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

    def test_empty_output_saturates_to_empty_outputs(self):
        b = PrefixMachine("b", {"0": "", "1": "1"})
        a = uniformize(b, identity_witness(Fraction(3)))
        assert a.pad_length == 2
        assert a.table == {
            "000": "", "001": "", "010": "", "011": "",
            "100": "1", "101": "1", "110": "1", "111": "1",
        }
        assert measure(a) == measure(b)

    def test_codes_outside_the_unit_interval_named_past_saturating_pads(self):
        # 2 * 0.11 is outside [0,1); 2 * 0.01 = 0.10 saturates two bits from pad 2
        w = TranslationWitness("double", lambda q: q * 2, Fraction(3))
        b = PrefixMachine("b", {"0": "11", "10": "01", "11": "00"})
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


def reference_uniformize(source, witness):
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
            else:
                output = "1" * n
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
    whose images stay inside [0,1), leave it, or saturate the pads."""
    codes = draw(prefix_free_codes())
    if draw(st.booleans()):
        outputs = st.text(alphabet="01", max_size=8)
    else:  # all ones: every pad past the first saturates
        outputs = st.integers(min_value=0, max_value=8).map(lambda n: "1" * n)
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
                SHIFTED_UP,
                SHIFTED_DOWN,
            ]
        )
    )
    return source, draw(st.sampled_from([witness, dataclasses.replace(witness, affine=None)]))


# Affine witnesses with v != 0 and m > 1: q -> 2q/3 + 1/5 (m = 15) stays in
# [0,1); q -> 3q/2 - 1/4 (m = 8) leaves it below q = 1/6 and from q = 5/6.
SHIFTED_UP = affine_witness("up", Fraction(2, 3), Fraction(1, 5), Fraction(3))
SHIFTED_DOWN = affine_witness("down", Fraction(3, 2), Fraction(-1, 4), Fraction(2))


class TestUniformizeAgainstFractionLoop:
    @settings(max_examples=300)
    @given(transport_cases())
    @example((PrefixMachine("b", {"0": "1", "10": "111", "110": "", "111": "11111"}), identity_witness(Fraction(7))))
    @example((PrefixMachine("b", {"00": "0", "01": "1101", "1": "0011"}), SHIFTED_UP))
    @example((PrefixMachine("b", {"0": "111", "100": "0", "101": "01", "11": "110"}), SHIFTED_DOWN))
    @example((PrefixMachine("b", {"0": "111", "100": "0", "101": "01", "11": "110"}), dataclasses.replace(SHIFTED_DOWN, affine=None)))
    def test_same_table_pad_and_errors(self, case):
        assert _transport(uniformize, *case) == _transport(reference_uniformize, *case)

    def test_codes_outside_the_unit_interval_named_in_ascending_order(self):
        # 3q/2 - 1/4 is below 0 at 0 and 1/8, and at least 1 at 7/8 and 1 - 2**-6
        b = PrefixMachine("b", {"110": "111", "0": "", "100": "001", "101": "1", "111": "111111"})
        for witness in (SHIFTED_DOWN, dataclasses.replace(SHIFTED_DOWN, affine=None)):
            with pytest.raises(ConstructionError) as err:
                uniformize(b, witness)
            assert err.value.codes == ("0", "100", "110", "111")
            assert str(err.value) == "translated output outside [0,1) for codes ['0', '100', '110', '111']"

    def test_all_ones_outputs_saturate_at_every_pad(self):
        b = PrefixMachine("b", {"0": "1", "10": "111", "11": ""})
        a = uniformize(b, identity_witness(Fraction(7)))
        assert a.table == {code + format(v, "03b"): out for code, out in b.table.items() for v in range(8)}
        assert list(a.table) == sorted(a.table)


@st.composite
def unchecked_cases(draw):
    """Sources with the code "" or a split tree, empty and short outputs, and
    an affine witness, the same witness asked through ``translate``, or one
    whose images leave [0,1) (scaling up by 3)."""
    codes = draw(prefix_free_codes())
    source = PrefixMachine("b", {c: draw(st.text(alphabet="01", max_size=6)) for c in codes})
    affine = draw(
        st.sampled_from(
            [
                identity_witness(Fraction(1)),
                identity_witness(Fraction(7)),
                identity_witness(Fraction(15)),
                scaling_witness(Fraction(3, 4), "forward"),
                scaling_witness(Fraction(3), "forward"),
            ]
        )
    )
    return source, draw(st.sampled_from([affine, dataclasses.replace(affine, affine=None)]))


class TestUncheckedConstruction:
    """``uniformize`` builds its machine without ``PrefixMachine``'s check; the
    table must be the reference's, and the check must accept it."""

    @settings(max_examples=300)
    @given(unchecked_cases())
    @example((PrefixMachine("b", {"": "1"}), identity_witness(Fraction(3))))  # 3 of 4 pads saturate
    @example((PrefixMachine("b", {"": ""}), dataclasses.replace(identity_witness(Fraction(7)), affine=None)))
    @example((PrefixMachine("b", {"0": "11", "1": ""}), scaling_witness(Fraction(3), "forward")))
    def test_same_table_as_the_reference_and_accepted_by_the_check(self, case):
        got = _transport(uniformize, *case)
        assert got == _transport(reference_uniformize, *case)
        if got[0] != "error":
            built = uniformize(*case)
            assert PrefixMachine(built.name, built.table, built.pad_length) == built
            assert set(map(type, built.table.values())) <= {str}


def _never_called(q):
    raise AssertionError(f"translate({q}) called")


class TestAffineTransport:
    """An affine witness's images come from integers; ``translate`` is not called."""

    @pytest.mark.parametrize(
        "witness",
        [identity_witness(Fraction(3)), scaling_witness(Fraction(3, 4), "forward"), scaling_witness(Fraction(3), "forward")],
        ids=["identity", "scaling-3/4", "scaling-3"],
    )
    def test_same_transport_without_translate(self, witness):
        b = PrefixMachine("b", {"0": "1", "10": "", "110": "0110", "111": "11"})
        blind = dataclasses.replace(witness, translate=_never_called)
        assert _transport(uniformize, b, blind) == _transport(uniformize, b, witness)
        assert _transport(uniformize, b, blind) == _transport(reference_uniformize, b, witness)

    def test_pads_saturate_past_the_all_ones_output(self):
        # 2**5 pads for two codes: pads 6..31 of code "0" saturate at "1111"
        b = PrefixMachine("b", {"0": "1010", "1": ""})
        w = identity_witness(Fraction(31))
        assert _transport(uniformize, b, w) == _transport(reference_uniformize, b, w)
        assert uniformize(b, w).table["011111"] == "1111"


class TestTransportCap:
    def test_refused_before_any_pad_or_translation(self):
        # 2 codes with 2**41 pads each; the witness would raise if it were asked
        w = TranslationWitness("huge", _never_called, Fraction(2**40))
        with pytest.raises(ConfigError) as err:
            uniformize(PrefixMachine("b", {"0": "1", "1": "0"}), w)
        assert str(err.value) == "transporting 2 codes with 2**41 pads each refused (cap 2**20 codes)"

    def test_exactly_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(machines, "MAX_ENUMERATION_BITS", 4)
        b = PrefixMachine("b", {"0": "1", "1": "0"})
        assert len(uniformize(b, identity_witness(Fraction(7))).table) == 16  # 2 codes, 2**3 pads
        assert len(uniformize(PrefixMachine("c", {"": "1"}), identity_witness(Fraction(15))).table) == 16
        with pytest.raises(ConfigError, match=r"^transporting 2 codes with 2\*\*4 pads each refused \(cap 2\*\*4 codes\)$"):
            uniformize(b, identity_witness(Fraction(15)))


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

    @pytest.mark.parametrize(
        "alpha_limit, beta_limit, message",
        [
            (Fraction(1), Fraction(2, 3), "alpha limit must lie in [0,1), got 1"),
            (Fraction(2, 3), Fraction(3, 2), "beta limit must lie in [0,1), got 3/2"),
            (Fraction(3, 2), Fraction(1), "alpha limit must lie in [0,1), got 3/2"),  # alpha first
        ],
    )
    def test_limit_outside_the_unit_interval_refused_by_role(self, alpha_limit, beta_limit, message):
        # The empty machine codes no prefix of beta, so no row would truncate either limit.
        for b in (three_code(), PrefixMachine("empty", {})):
            with pytest.raises(DomainError) as err:
                check_usch(three_code(), b, geometric(alpha_limit), geometric(beta_limit), 1, 8)
            assert str(err.value) == message


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


def usch_rows_from_full_tables(a_machine, b_machine, alpha, beta, constant, n_max):
    """check_usch's rows with ``shortest_codes`` of each whole table and one
    truncation of each limit per length."""
    a_shortest, b_shortest = shortest_codes(a_machine), shortest_codes(b_machine)
    rows = []
    for n in range(1, n_max + 1):
        k_beta = b_shortest.get(format(truncate(beta.limit, n), f"0{n}b"))
        if k_beta is not None:
            rows.append((n, a_shortest.get(format(truncate(alpha.limit, n), f"0{n}b")), k_beta, k_beta + constant))
    return rows


def _prefix_machine(name, limit, lengths, codes=None):
    """Codes 1^i 0 (or ``codes``) for the ``lengths``-bit prefixes of ``limit``, in order."""
    outputs = [format(truncate(limit, n), f"0{n}b") for n in lengths]
    codes = codes or ["1" * i + "0" for i in range(len(outputs))]
    return PrefixMachine(name, dict(zip(codes, outputs)))


class TestCheckUschAgainstFullTables:
    """check_usch keeps only the entries whose outputs it looks up; its rows,
    and the shortest codes of those outputs, match the whole tables'."""

    ALPHA, BETA = geometric(Fraction(5, 7)), geometric(Fraction(2, 3))

    @pytest.mark.parametrize(
        "a_machine, b_machine, n_max",
        [
            # every output is a target
            (_prefix_machine("a", Fraction(5, 7), range(1, 9)), _prefix_machine("b", Fraction(2, 3), range(1, 9)), 8),
            # no output is a target: each is a prefix, one bit too long for n_max, or the wrong digits
            (
                _prefix_machine("a", Fraction(2, 7), range(1, 6)),
                PrefixMachine("b", {"0": "0", "10": "11", "110": format(truncate(Fraction(2, 3), 9), "09b"), "111": ""}),
                8,
            ),
            # several codes share a target, the shortest not first in the table
            (
                PrefixMachine("a", {"111": "1", "0": "1", "10": "10", "110": "10"}),
                PrefixMachine("b", {"1110": "1", "110": "10", "0": "10", "10": "1", "1111": "101"}),
                6,
            ),
        ],
        ids=["all-targets", "no-targets", "shared-targets"],
    )
    def test_rows_and_filtered_codes_match(self, a_machine, b_machine, n_max):
        case = (a_machine, b_machine, self.ALPHA, self.BETA, 2, n_max)
        rows = [(r.n, r.alpha_complexity, r.beta_complexity, r.bound) for r in check_usch(*case).rows]
        assert rows == usch_rows_from_full_tables(*case)
        for machine, limit in ((a_machine, self.ALPHA.limit), (b_machine, self.BETA.limit)):
            targets = {format(truncate(limit, n), f"0{n}b") for n in range(1, n_max + 1)}
            full = {output: k for output, k in shortest_codes(machine).items() if output in targets}
            assert machines._shortest_prefixes(machine, format(truncate(limit, n_max), f"0{n_max}b")) == full

    def test_no_target_machine_gives_no_rows(self):
        b = PrefixMachine("b", {"0": "0", "10": "11"})  # 2/3 = 0.1010...: neither output is a prefix
        assert check_usch(three_code(), b, self.ALPHA, self.BETA, 1, 8).rows == []


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
        doc = json.loads(dump_json(machine_to_dict(uniformize(three_code(), identity_witness(Fraction(1))))))
        again = machine_from_dict(doc)
        assert again.table == {c["code"]: c["output"] for c in doc["entries"]}
        assert again.pad_length == 1

    def test_entries_sorted_for_determinism(self):
        doc = json.loads(dump_json(machine_to_dict(three_code())))
        codes = [e["code"] for e in doc["entries"]]
        assert codes == sorted(codes)

    def test_rows_entries_are_refused(self):
        with pytest.raises(MachineFormatError, match="entries must be a list"):
            machine_from_dict(machine_to_dict(three_code()))

    @staticmethod
    def list_document(machine):
        """The document as a list of dicts, one per entry by ascending code."""
        doc = {"name": machine.name, "entries": [{"code": c, "output": machine.table[c]} for c in sorted(machine.table)]}
        if machine.pad_length is not None:
            doc["pad_length"] = machine.pad_length
        return doc

    @given(transport_cases())
    @example((PrefixMachine("b", {}), identity_witness(Fraction(1))))
    @example((PrefixMachine("caf\u00e9 \"b\"", {"": "1"}), identity_witness(Fraction(3))))
    def test_rows_document_writes_the_list_documents_bytes(self, case):
        machines = [case[0]]
        if _transport(uniformize, *case)[0] != "error":
            machines.append(uniformize(*case))
        for machine in machines:
            doc = machine_to_dict(machine)
            assert isinstance(doc["entries"], Rows)
            assert dump_json(doc) == json.dumps(self.list_document(machine), sort_keys=True, indent=2) + "\n"
            again = machine_from_dict(json.loads(dump_json(doc)))
            assert (again.name, again.table, again.pad_length) == (machine.name, machine.table, machine.pad_length)

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

    def test_name_must_be_a_string(self):
        entries = [{"code": "0", "output": "1"}]
        assert machine_from_dict({"entries": entries}).name == "machine"
        assert machine_from_dict({"name": "", "entries": entries}).name == ""
        for name in (None, ["x"], 1, False):
            with pytest.raises(MachineFormatError) as err:
                machine_from_dict({"name": name, "entries": entries})
            assert str(err.value) == f"name must be a string, got {name!r}"

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

    @staticmethod
    def hundred_entries():
        return [{"code": format(i, "07b"), "output": "1"} for i in range(100)]

    @pytest.mark.parametrize("at", [0, 50, 99], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(
        "fault", ["duplicate", "not-a-dict", "missing-output", "unhashable-code", "non-str-output"]
    )
    def test_fault_anywhere_in_many_entries_is_named(self, fault, at):
        entries = self.hundred_entries()
        if fault == "duplicate":  # entry 0 takes entry 1's code, so entry 1 is the duplicate
            code = entries[at - 1 if at else 1]["code"]
            entries[at]["code"] = code
            message = f"duplicate code {code!r}"
        elif fault == "not-a-dict":
            entries[at] = [entries[at]["code"], "1"]
            message = f"entry {at} needs code and output"
        elif fault == "missing-output":
            del entries[at]["output"]
            message = f"entry {at} needs code and output"
        elif fault == "unhashable-code":
            entries[at]["code"] = [0, 1]
            message = f"entry {at} code must be a binary string, got [0, 1]"
        else:
            entries[at]["output"] = 1
            message = "output must be a binary string, got 1"
        with pytest.raises(MachineFormatError) as err:
            machine_from_dict({"entries": entries})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "faults, message",
        [
            ({30: {"code": "0000000", "output": "1"}, 70: {"code": "1111111"}}, "duplicate code '0000000'"),
            ({20: ["0010100", "1"], 80: {"code": "0000000", "output": "1"}}, "entry 20 needs code and output"),
            ({10: {"code": [0], "output": "1"}, 60: "x"}, "entry 10 code must be a binary string, got [0]"),
            ({40: {"code": "0101000", "output": 2}, 90: {"code": "0000000", "output": "1"}}, "duplicate code '0000000'"),
        ],
        ids=["duplicate-before-missing", "not-a-dict-before-duplicate", "unhashable-before-not-a-dict", "duplicate-before-output"],
    )
    def test_the_first_of_two_faults_is_named(self, faults, message):
        entries = self.hundred_entries()
        for at, entry in faults.items():
            entries[at] = entry
        with pytest.raises(MachineFormatError) as err:
            machine_from_dict({"entries": entries})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "last, message",
        [
            ({"code": "1111111"}, "entry 99 needs code and output"),
            ({"code": "0000000", "output": "1"}, "duplicate code '0000000'"),
            ({"code": [0, 1], "output": "1"}, "entry 99 code must be a binary string, got [0, 1]"),
            (["1111111", "1"], "entry 99 needs code and output"),
        ],
        ids=["missing-output", "duplicate", "unhashable-code", "not-a-dict"],
    )
    def test_fault_in_the_last_of_many_entries_is_named(self, last, message):
        entries = [{"code": format(i, "07b"), "output": "1"} for i in range(99)] + [last]
        with pytest.raises(MachineFormatError) as err:
            machine_from_dict({"entries": entries})
        assert str(err.value) == message
