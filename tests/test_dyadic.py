from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lce_lab import (
    canonical_length,
    dyadic_length,
    is_binary,
    is_dyadic,
    real_from_set,
    truncate,
)
from lce_lab.dyadic import kraft_mass, lengths_in_grid_order
from lce_lab.errors import DomainError


def bits_by_long_division(x: Fraction, n: int) -> str:
    """Independent oracle: base-2 long division, digit by repeated doubling."""
    out = []
    for _ in range(n):
        x *= 2
        if x >= 1:
            out.append("1")
            x -= 1
        else:
            out.append("0")
    return "".join(out)


dyadics = st.integers(min_value=0, max_value=20).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << n) - 1).map(
        lambda k: Fraction(k, 1 << n)
    )
)
unit_rationals = st.fractions(min_value=0, max_value=1).filter(lambda q: q < 1)


class TestDyadicLength:
    def test_five_eighths(self):
        assert dyadic_length(Fraction(5, 8)) == 3

    def test_one_half(self):
        assert dyadic_length(Fraction(1, 2)) == 1

    def test_zero_uses_empty_string(self):
        assert dyadic_length(Fraction(0)) == 0

    @pytest.mark.parametrize("bad", [Fraction(1, 3), Fraction(-1, 2), Fraction(3, 2)])
    def test_rejects_non_dyadic_or_out_of_range(self, bad):
        with pytest.raises(DomainError):
            dyadic_length(bad)

    @given(dyadics)
    def test_matches_canonical_string_length(self, q):
        sigma = bits_by_long_division(q, 40).rstrip("0")
        assert dyadic_length(q) == len(sigma)


class TestCanonicalLength:
    @given(dyadics)
    def test_is_dyadic_length_on_unit_dyadics(self, q):
        assert canonical_length(q) == dyadic_length(q)

    @pytest.mark.parametrize(
        "q, length",
        [
            (Fraction(-5), 0),  # clamped to 0
            (Fraction(7, 5), 64),  # clamped to 1 - 2**-64: sixty-four ones
            (Fraction(1, 3), 64),  # 0.0101...01 at 64 bits ends in 1
            (Fraction(2, 3), 63),  # 0.1010...10 at 64 bits ends in 0
        ],
    )
    def test_filler_truncates_at_64_bits(self, q, length):
        assert canonical_length(q) == length

    @given(unit_rationals.filter(lambda q: not is_dyadic(q)))
    def test_filler_is_length_of_the_truncation(self, q):
        assert canonical_length(q) == len(bits_by_long_division(q, 64).rstrip("0"))


class TestTruncate:
    def test_two_thirds_four_bits(self):
        assert truncate(Fraction(2, 3), 4) == 0b1010

    def test_one_half_one_bit(self):
        assert truncate(Fraction(1, 2), 1) == 1

    def test_zero_bits(self):
        assert truncate(Fraction(7, 9), 0) == 0

    @pytest.mark.parametrize("x, n", [(Fraction(1), 3), (Fraction(-1, 8), 3), (Fraction(1, 2), -1)])
    def test_rejects_out_of_range(self, x, n):
        with pytest.raises(DomainError):
            truncate(x, n)

    @given(unit_rationals, st.integers(min_value=1, max_value=48))
    def test_matches_long_division(self, x, n):
        assert format(truncate(x, n), f"0{n}b") == bits_by_long_division(x, n)

    @given(unit_rationals, st.integers(min_value=0, max_value=48))
    def test_error_below_one_ulp(self, x, n):
        v = Fraction(truncate(x, n), 1 << n)
        assert 0 <= x - v < Fraction(1, 1 << n)

    @given(unit_rationals, unit_rationals, st.integers(min_value=0, max_value=32))
    def test_monotone(self, x, y, n):
        lo, hi = sorted((x, y))
        assert truncate(lo, n) <= truncate(hi, n)

    @given(dyadics.filter(lambda q: q > 0))
    def test_round_trip_at_canonical_length(self, q):
        n = dyadic_length(q)
        assert Fraction(truncate(q, n), 1 << n) == q


class TestIsBinary:
    @pytest.mark.parametrize("s", ["", "0", "1", "0110", "1" * 1000])
    def test_accepts_binary_strings(self, s):
        assert is_binary(s)

    # int(s, 2) takes every string here but "012" and "2", so each must fail
    # this test before any int() call sees it.
    @pytest.mark.parametrize("s", ["012", "2", "0_1", " 1", "1 ", "1\n", "\uff11", "0\u0661"])
    def test_rejects_other_strings(self, s):
        assert not is_binary(s)

    def test_rejects_a_lone_surrogate(self):
        # "0\ud800".encode() raises; the test must answer before it gets there
        assert not is_binary("0\ud800")

    @pytest.mark.parametrize("s", [1, 0, None, ["0"], b"01", ("0",)])
    def test_rejects_non_strings(self, s):
        assert not is_binary(s)

    @given(st.text(max_size=8))
    def test_matches_a_character_scan(self, s):
        assert is_binary(s) == all(c in "01" for c in s)


class TestRealFromSet:
    def test_evens_four_bits(self):
        assert real_from_set(lambda i: i % 2 == 0, 4) == Fraction(5, 8)

    def test_empty_set(self):
        assert real_from_set(lambda i: False, 10) == 0

    def test_full_set(self):
        assert real_from_set(lambda i: True, 3) == Fraction(7, 8)

    @given(st.lists(st.booleans(), max_size=40))
    def test_nondecreasing_with_bounded_tail(self, bits):
        member = lambda i: i < len(bits) and bits[i]
        values = [real_from_set(member, n) for n in range(len(bits) + 1)]
        for a, b in zip(values, values[1:]):
            assert a <= b
        for n in range(len(values)):
            for later in values[n:]:
                assert later < values[n] + Fraction(1, 1 << n) or later == values[n]

    def test_is_dyadic(self):
        assert is_dyadic(Fraction(3, 8))
        assert not is_dyadic(Fraction(1, 3))


class TestKraftMass:
    @example([])
    @given(st.lists(st.integers(min_value=0, max_value=80), max_size=40))
    def test_matches_a_fraction_sum(self, lengths):
        expect = sum((Fraction(1, 1 << n) for n in lengths), Fraction(0))
        got = kraft_mass(iter(lengths))
        assert got == expect and type(got) is Fraction


def test_lengths_in_grid_order_is_the_order_ascending_k_first_reaches_them():
    for depth in range(9):
        first_seen = []
        for k in range(1 << depth):
            length = dyadic_length(Fraction(k, 1 << depth))
            if length not in first_seen:
                first_seen.append(length)
        assert list(lengths_in_grid_order(depth)) == first_seen
