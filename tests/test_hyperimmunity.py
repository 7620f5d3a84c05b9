import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lce_lab import (
    TranslationWitness,
    check_witness,
    evens,
    explicit_set,
    geometric,
    iterated_principal_bound,
    k_bound_from_witness,
    least_beyond,
    majorize_k_from_p,
    majorize_p_from_k,
    majorizes_gaps,
    majorizes_principal,
    naturals,
    odds,
    powers_of_two,
    per_length_witness,
    principal,
    real_from_set,
    set_from_config,
    set_real,
    squares,
    total_witness_from_majorizer,
)
from lce_lab.dyadic import canonical_length
from lce_lab.errors import LabError, PreconditionError, WitnessDegenerateError
from lce_lab.hyperimmunity import NaturalSet, _next_member


def brute_members(a, count):
    """Independent oracle: first members by raw membership scan."""
    out, m = [], 0
    while len(out) < count:
        if a.contains(m):
            out.append(m)
        m += 1
    return out


class TestPrincipalAndGaps:
    def test_examples(self):
        assert principal(evens(), 3) == 6
        assert principal(powers_of_two(), 3) == 8
        for k in range(6):
            assert principal(naturals(), k) == k

    def test_least_beyond_examples(self):
        assert least_beyond(evens(), 5) == 6
        assert least_beyond(evens(), 0) == 0
        assert least_beyond(powers_of_two(), 5) == 8

    @pytest.mark.parametrize(
        "a,count",
        [(evens(), 30), (odds(), 30), (naturals(), 30), (squares(), 30), (powers_of_two(), 12)],
    )
    def test_against_brute_scan(self, a, count):
        members = brute_members(a, count)
        assert [principal(a, n) for n in range(count)] == members
        for n in range(min(members[-1], 50)):
            assert least_beyond(a, n) == next(m for m in members if m >= n)

    @pytest.mark.parametrize("a", [evens(), odds(), squares(), powers_of_two()])
    def test_certificates_are_members_at_or_above(self, a):
        for n in range(200):
            m = a.member_at_or_above(n)
            assert m >= n and a.contains(m)

    def test_lying_certificate_detected(self):
        liar = NaturalSet("liar", lambda n: n % 2 == 0, lambda n: n)
        with pytest.raises(PreconditionError):
            _next_member(liar, 1)  # claims 1 is a member at or above 1

    def test_explicit_set_prefix_and_tail(self):
        a = explicit_set([0, 4, 9])
        assert [principal(a, n) for n in range(5)] == [0, 4, 9, 10, 11]
        assert least_beyond(a, 2) == 4
        assert least_beyond(a, 50) == 50

    def test_set_from_config(self):
        assert set_from_config({"kind": "squares"}).contains(49)
        e = set_from_config({"kind": "explicit", "elements": [1, 5]})
        assert e.contains(5) and not e.contains(2)


class TestMajorizerConversions:
    def test_iterate_examples(self):
        assert majorize_p_from_k(lambda n: n + 2, 4) == 8      # 0,2,4,6,8
        assert majorize_p_from_k(lambda n: n, 7) == 0          # identity fixed point
        assert majorize_p_from_k(lambda n: 2 * n + 1, 3) == 7  # 0,1,3,7

    def test_shift_examples(self):
        assert majorize_k_from_p(lambda n: 2 * n, 3) == 8
        assert majorize_k_from_p(lambda n: n, 0) == 1
        assert majorize_k_from_p(lambda n: n * n, 2) == 9

    def test_non_monotone_detected(self):
        def jagged(n):
            return 5 if n == 0 else 1

        with pytest.raises(PreconditionError):
            majorize_p_from_k(jagged, 3)

    def test_raw_iterate_stalls_at_gap_fixed_points(self):
        # Doubling majorizes the gap function of the evens yet every iterate
        # sits at 0; this is why the principal bound feeds successors.
        doubling = lambda n: 2 * n
        assert majorizes_gaps(doubling, evens(), 100)
        assert majorize_p_from_k(doubling, 5) == 0 < principal(evens(), 5)
        assert iterated_principal_bound(doubling, 5) >= principal(evens(), 5)

    @pytest.mark.parametrize(
        "a", [evens(), odds(), naturals(), squares(), powers_of_two()]
    )
    def test_gap_majorizer_yields_principal_bound(self, a):
        g = lambda n: least_beyond(a, n) + 3  # nondecreasing? not necessarily; use exact gap
        g = lambda n: max(least_beyond(a, m) for m in range(n + 1))  # monotone hull
        assert majorizes_gaps(g, a, 60)
        for n in range(12):
            bound = iterated_principal_bound(g, n)
            assert bound >= principal(a, n), (a.name, n)

    @pytest.mark.parametrize("a", [evens(), odds(), naturals(), squares()])
    def test_principal_majorizer_yields_gap_majorizer(self, a):
        g = lambda n: principal(a, n)
        assert majorizes_principal(g, a, 80)
        for n in range(80):
            assert majorize_k_from_p(g, n) >= least_beyond(a, n), (a.name, n)

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4))
    def test_affine_iterates_exact(self, n, slope):
        g = lambda m: slope * m + 2
        value = majorize_p_from_k(g, n)
        expect = 0
        for _ in range(n):
            expect = slope * expect + 2
        assert value == expect


class TestTotalWitnessFromMajorizer:
    def test_worked_values(self):
        w = total_witness_from_majorizer(evens(), lambda n: n + 3)
        alpha = Fraction(2, 3)
        assert w.translate(Fraction(1, 2)) == Fraction(21, 32)
        assert alpha - w.translate(Fraction(1, 2)) == Fraction(1, 96)
        assert alpha - w.translate(Fraction(1, 2)) < Fraction(1, 16) <= 1 - Fraction(1, 2)
        assert w.translate(Fraction(0)) == Fraction(5, 8)
        assert alpha - w.translate(Fraction(0)) == Fraction(1, 24) < Fraction(1, 8)

    def test_bound_against_evens_target(self):
        # majorizer of the evens' gap function; sample q = 1/4 has |q| = 2.
        g = lambda n: n + 2
        assert majorizes_gaps(g, evens(), 50)
        assert Fraction(1, 1 << g(2)) <= Fraction(2, 3) - Fraction(1, 4)

    def test_passes_strict_check_on_bit_prefix_samples(self):
        w = total_witness_from_majorizer(evens(), lambda n: n + 3)
        alpha = set_real(evens().contains, Fraction(2, 3), name="evens_real")
        beta = set_real(naturals().contains, Fraction(1), name="ones_real")
        samples = [1 - Fraction(1, 1 << n) for n in range(17)]
        report = check_witness(alpha, beta, w, samples)
        assert report.passed and report.samples_checked == 17

    @given(
        st.sampled_from(["evens", "odds", "squares", "powers"]),
        st.integers(0, 3),
        st.one_of(
            st.builds(Fraction, st.integers(0, 255), st.sampled_from([1, 2, 4, 64, 256])),
            st.fractions(min_value=-2, max_value=3, max_denominator=50),
        ),
    )
    def test_translate_is_at_length_of_canonical_length(self, kind, b, q):
        a = set_from_config({"kind": kind})
        w = total_witness_from_majorizer(a, lambda n: n + b)
        length = canonical_length(q)
        assert w.translate(q) == w.at_length(length) == real_from_set(a.contains, length + b + 1)

    def test_non_dyadic_inputs_get_truncated(self):
        w = total_witness_from_majorizer(evens(), lambda n: n + 1)
        assert w.translate(Fraction(1, 3)) < Fraction(2, 3)
        assert w.translate(Fraction(7, 2)) < Fraction(2, 3)
        assert w.translate(Fraction(-1)) == w.translate(Fraction(0))


class TestKBoundFromWitness:
    def setup_method(self):
        self.alpha = geometric(Fraction(1, 3), name="third")
        self.witness = TranslationWitness("third-scale", lambda q: q / 3, Fraction(1))

    def test_two_bit_enumeration(self):
        assert k_bound_from_witness(self.witness, self.alpha, 2) == 5

    def test_empty_string_level(self):
        assert k_bound_from_witness(self.witness, self.alpha, 0) == 3

    def test_constant_witness_pins_residual(self):
        w = TranslationWitness("const", lambda q: Fraction(1, 3) - Fraction(1, 1024), Fraction(1))
        assert k_bound_from_witness(w, self.alpha, 1) == 11

    def test_dominates_gap_function_of_target(self):
        for n in range(13):
            assert k_bound_from_witness(self.witness, self.alpha, n) >= least_beyond(naturals(), n)

    def test_constructed_witness_dominates_too(self):
        w = total_witness_from_majorizer(evens(), lambda n: n + 3)
        alpha = set_real(evens().contains, Fraction(2, 3), name="evens_real")
        for n in range(13):
            assert k_bound_from_witness(w, alpha, n) >= least_beyond(naturals(), n)

    def test_enumeration_cap(self):
        with pytest.raises(PreconditionError, match=r"enumeration of 2\*\*21 strings refused \(cap 20\)"):
            k_bound_from_witness(self.witness, self.alpha, 21)

    @pytest.mark.parametrize("n", [-1, -30])
    def test_negative_length_is_named(self, n):
        per_length = total_witness_from_majorizer(evens(), lambda m: m + 3)
        for w in (self.witness, per_length):
            with pytest.raises(PreconditionError, match=rf"^n must be >= 0, got {n}$"):
                k_bound_from_witness(w, self.alpha, n)

    def test_per_length_path_has_no_cap(self):
        # g(64) + 1 = 68 bits of 0.1010...: the residual is (2/3) * 2**-68, so
        # the bound is d + ceil(log2(3 * 2**67)) = 1 + 69.
        w = total_witness_from_majorizer(evens(), lambda n: n + 3)
        alpha = set_real(evens().contains, Fraction(2, 3), name="evens_real")
        assert k_bound_from_witness(w, alpha, 64) == 70 >= least_beyond(naturals(), 64)
        with pytest.raises(PreconditionError, match=r"2\*\*21 strings refused"):
            k_bound_from_witness(dataclasses.replace(w, at_length=None), alpha, 21)

    @pytest.mark.parametrize("kind", ["evens", "odds", "squares", "powers"])
    @pytest.mark.parametrize(
        "g", [lambda n: n, lambda n: n + 3, lambda n: 2 * n + 1, lambda n: n * n // 3]
    )
    def test_per_length_bound_matches_full_enumeration(self, kind, g):
        a = set_from_config({"kind": kind})
        alpha = geometric(Fraction(2, 3), name="two-thirds")
        for n in range(13):
            keyed = total_witness_from_majorizer(a, g)
            enumerated = dataclasses.replace(total_witness_from_majorizer(a, g), at_length=None)
            assert self._outcome(keyed, alpha, n) == self._outcome(enumerated, alpha, n), n

    @pytest.mark.parametrize(
        "at_length",
        [
            lambda j: None if j in (2, 5) else Fraction(1, 4),  # undefined at 1/4 or 1/32
            lambda j: None if j == 0 else Fraction(1, 4),  # undefined at 0
            lambda j: Fraction(1, 2),  # no positive residual below 1/3
            lambda j: Fraction(1, 3) - Fraction(j + 1, 1 << (2 * j + 3)),
        ],
    )
    def test_per_length_errors_match_full_enumeration(self, at_length):
        keyed = per_length_witness("keyed", at_length, Fraction(1))
        enumerated = dataclasses.replace(keyed, at_length=None)
        for n in range(9):
            expect = self._outcome(enumerated, self.alpha, n)
            assert self._outcome(keyed, self.alpha, n) == expect, n

    def test_bad_majorizer_value_raises_at_the_same_length(self):
        g = lambda n: -1 if n in (3, 6) else n + 2
        keyed = total_witness_from_majorizer(evens(), g)
        enumerated = dataclasses.replace(total_witness_from_majorizer(evens(), g), at_length=None)
        expect = "majorizer value g(6) = -1 is not a natural"
        assert self._outcome(keyed, self.alpha, 8) == ("PreconditionError", expect)
        assert self._outcome(enumerated, self.alpha, 8) == ("PreconditionError", expect)

    @staticmethod
    def _outcome(witness, alpha, n):
        try:
            return k_bound_from_witness(witness, alpha, n)
        except LabError as e:
            return (type(e).__name__, str(e))

    def test_degenerate_witness_detected(self):
        w = TranslationWitness("above", lambda q: Fraction(1), Fraction(1))
        with pytest.raises(WitnessDegenerateError):
            k_bound_from_witness(w, self.alpha, 2)
