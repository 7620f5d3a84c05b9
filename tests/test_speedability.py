from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lce_lab import (
    PrefixMachine,
    SpeedUp,
    TranslationMap,
    affine_toward,
    amplify,
    check_total_speedup,
    default_gallery,
    geometric,
    identity_speedup,
    identity_translation,
    liminf_record,
    linear_speedup,
    omega_toy,
    ratio,
    speedup_from_translation,
    staircase,
    translation_from_speedup,
)
from lce_lab.errors import (
    ConfigError,
    DegenerateApproximationError,
    PreconditionError,
    SearchExhaustedError,
)
from lce_lab.reals import alternating_gaps
from lce_lab.speedability import MAX_HORIZON, PROBE_NOT_ABOVE, PROBE_NOT_BELOW, check_horizon


def geo1():
    return geometric(Fraction(1), name="geo1")  # a_n = 1 - 2^-n


def brute_first_index_above(x, target, lo):
    """Independent oracle for the conversion search: linear scan."""
    n = lo + 1
    while not x.approx(n) > target:
        n += 1
    return n


class TestRatio:
    def test_doubling_at_three(self):
        assert ratio(geo1(), linear_speedup(2), 3) == Fraction(1, 8)

    def test_identity_is_one(self):
        x = geo1()
        for n in (0, 1, 5, 9):
            assert ratio(x, identity_speedup(), n) == 1

    def test_successor_at_seven(self):
        assert ratio(geo1(), SpeedUp("succ", lambda n: n + 1), 7) == Fraction(1, 2)

    def test_rejects_shrinking_speedup(self):
        with pytest.raises(PreconditionError):
            ratio(geo1(), SpeedUp("bad", lambda n: n - 1), 3)

    def test_degenerate_gap_raises(self):
        m = PrefixMachine("m", {"0": "1", "1": "0"})
        x = omega_toy(m, {"0": 1, "1": 1})
        with pytest.raises(DegenerateApproximationError):
            ratio(x, identity_speedup(), 1)


class TestLiminfRecord:
    def test_doubling_running_min(self):
        trace = liminf_record(geo1(), linear_speedup(2), 10)
        assert trace.running_min == Fraction(1, 1024)
        assert len(trace.entries) == 11

    def test_identity_no_evidence(self):
        trace = liminf_record(geo1(), identity_speedup(), 10)
        assert trace.running_min == 1
        assert not trace.evidence_at(Fraction(1, 2))

    def test_alternating_staircase_bottoms_at_a_third(self):
        x = staircase(Fraction(1), alternating_gaps, name="alt")
        trace = liminf_record(x, SpeedUp("succ", lambda n: n + 1), 12)
        assert trace.running_min == Fraction(1, 3)
        ratios = {v for _, v in trace.entries}
        assert ratios == {Fraction(1, 3), Fraction(3, 4)}

    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigError):
            liminf_record(geo1(), identity_speedup(), 0)

    def test_horizon_is_bounded_above(self):
        # above 800, where a geometric:1:1/1000000 trace passes the 4300-digit limit
        assert check_horizon(MAX_HORIZON) == MAX_HORIZON > 800
        with pytest.raises(ConfigError, match=f"^horizon must be <= {MAX_HORIZON}, got {MAX_HORIZON + 1}$"):
            liminf_record(geo1(), identity_speedup(), MAX_HORIZON + 1)

    def test_non_monotone_speedup_detected(self):
        jag = SpeedUp("jag", lambda n: [5, 3, 9][n] if n < 3 else n)
        with pytest.raises(PreconditionError):
            liminf_record(geo1(), jag, 3)

    def test_csv_rows_carry_running_min(self):
        trace = liminf_record(geo1(), linear_speedup(2), 3)
        rows = trace.csv_rows()
        assert rows[0] == (0, 1, 1, 1, 1)
        assert rows[3] == (3, 1, 8, 1, 8)


class TestTranslationFromSpeedup:
    def test_three_eighths_lands_on_second_approx(self):
        g = translation_from_speedup(geo1(), SpeedUp("succ", lambda n: n + 1))
        assert g.evaluate(Fraction(3, 8)) == Fraction(3, 4)  # n(q)=1, a_2

    def test_approximation_points_map_exactly(self):
        x = geo1()
        g = translation_from_speedup(x, SpeedUp("succ", lambda n: n + 1))
        for i in range(40):
            assert g.evaluate(x.approx(i)) == x.approx(i + 1)

    def test_outside_domain_is_undefined(self):
        g = translation_from_speedup(geo1(), identity_speedup())
        assert g.evaluate(Fraction(2)) is None
        assert g.evaluate(Fraction(1)) is None
        assert not g.total

    def test_search_respects_nonstrict_least_index(self):
        # q exactly a_i must pick index i, not i+1.
        x = geo1()
        g = translation_from_speedup(x, linear_speedup(2))
        assert g.evaluate(x.approx(3)) == x.approx(6)

    def test_cap_admits_answers_the_doubling_overshoots(self):
        # least index is 33; doubling visits 64 > cap, which is fine as long
        # as the answer itself is inside the cap.
        x = geo1()
        g = translation_from_speedup(x, identity_speedup(), search_cap=40)
        assert g.evaluate(x.approx(33)) == x.approx(33)

    def test_cap_exhaustion_when_answer_is_beyond(self):
        x = geo1()
        g = translation_from_speedup(x, identity_speedup(), search_cap=10)
        with pytest.raises(SearchExhaustedError):
            g.evaluate(x.approx(500))


class TestSpeedupFromTranslation:
    def test_halving_contraction_gives_plus_three(self):
        f = speedup_from_translation(geo1(), affine_toward(Fraction(1), Fraction(1, 2)))
        assert [f.evaluate(i) for i in range(8)] == [i + 3 for i in range(8)]

    def test_quarter_step_translation(self):
        # g(q) = q + (1-q)/4 pushes a_{i+1} to 1 - (3/4)2^-(i+1); the first
        # index whose gap drops under that is i+2 (2^-(i+2) < (3/4)2^-(i+1)).
        x = geo1()
        g = TranslationMap("quarter", lambda q: q + (1 - q) / 4)
        f = speedup_from_translation(x, g)
        for i in range(12):
            expect = brute_first_index_above(x, g.evaluate(x.approx(i + 1)), i)
            assert f.evaluate(i) == expect == i + 2

    def test_barely_above_identity(self):
        x = geo1()
        g = TranslationMap("eps", lambda q: q + Fraction(1, 1 << 60) * (1 - q))
        f = speedup_from_translation(x, g)
        for i in range(8):
            expect = brute_first_index_above(x, g.evaluate(x.approx(i + 1)), i)
            assert f.evaluate(i) == expect == i + 2

    def test_slow_convergence_matches_linear_scan(self):
        # gaps shrink by 99/100 per index, so halving one takes 70 steps
        x = geometric(Fraction(1), Fraction(99, 100))
        g = affine_toward(x.limit, Fraction(1, 2))
        f = speedup_from_translation(x, g)
        for i in range(40):
            expect = brute_first_index_above(x, g.evaluate(x.approx(i + 1)), i)
            assert f.evaluate(i) == expect == i + 70

    def test_search_cap_exhaustion_signaled(self):
        # Map everything to just below the limit; no small index climbs above.
        g = TranslationMap("top", lambda q: Fraction(1) - Fraction(1, 1 << 40))
        with pytest.raises(SearchExhaustedError):
            speedup_from_translation(geo1(), g, search_cap=30).evaluate(0)

    def test_undefined_translation_rejected(self):
        g = TranslationMap("none", lambda q: None, total=False)
        with pytest.raises(PreconditionError):
            speedup_from_translation(geo1(), g).evaluate(2)

    def test_result_is_valid_speedup_across_range(self):
        f = speedup_from_translation(geo1(), affine_toward(Fraction(1), Fraction(1, 3)))
        values = [f.evaluate(i) for i in range(50)]
        assert all(v >= i for i, v in enumerate(values))
        assert values == sorted(values)

    def test_chain_inequality_exact(self):
        # ratio at i never exceeds the rational-side ratio at any q in [a_i, a_{i+1}).
        x = geo1()
        g = affine_toward(Fraction(1), Fraction(1, 2))
        f = speedup_from_translation(x, g)
        for i in range(60):
            lo, hi = x.approx(i), x.approx(i + 1)
            for q in (lo, (lo + hi) / 2, hi - Fraction(1, 1 << (i + 5))):
                lhs = ratio(x, f, i)
                rhs = (x.limit - g.evaluate(q)) / (x.limit - q)
                assert lhs <= rhs


class TestRoundTrip:
    def test_translation_of_speedup_hits_fast_points(self):
        x = geo1()
        for factor in (2, 3):
            f = linear_speedup(factor)
            g = translation_from_speedup(x, f)
            for i in range(30):
                assert g.evaluate(x.approx(i)) == x.approx(f.evaluate(i))


class TestCheckTotalSpeedup:
    def test_halving_contraction_is_half_everywhere(self):
        report = check_total_speedup(
            geo1(), affine_toward(Fraction(1), Fraction(1, 2)), Fraction(1, 2), 10
        )
        assert report.valid and report.evidence
        assert all(v == Fraction(1, 2) for _, v in report.trace.entries)

    def test_identity_violates_strict_increase(self):
        report = check_total_speedup(geo1(), identity_translation(), Fraction(1, 2), 5)
        assert not report.valid
        assert all(reason == PROBE_NOT_ABOVE for _, reason in report.violations)
        assert not report.evidence

    def test_quadratic_approach_gives_no_deep_evidence(self):
        # g(q) = q + (1-q)^2 has ratio 1-(1-q): near the limit the ratios sit
        # just under 1, so a small rho finds no evidence on deep probes.
        x = geometric(Fraction(1), gap0=Fraction(1, 1024), name="deep")
        g = TranslationMap("quad", lambda q: q + (1 - q) ** 2)
        report = check_total_speedup(x, g, Fraction(1, 2), 10)
        assert report.valid
        assert not report.evidence
        assert report.trace.running_min == 1 - Fraction(1, 1024)

    def test_map_reaching_limit_reported(self):
        x = geo1()
        g = TranslationMap("quad", lambda q: q + (1 - q) ** 2)  # g(0) = 1 = limit
        report = check_total_speedup(x, g, Fraction(1, 2), 4)
        assert (Fraction(0), PROBE_NOT_BELOW) in report.violations

    def test_rho_must_sit_inside_unit_interval(self):
        for rho in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ConfigError):
                check_total_speedup(geo1(), identity_translation(), rho, 3)

    def test_report_serializes(self):
        report = check_total_speedup(
            geo1(), affine_toward(Fraction(1), Fraction(1, 2)), Fraction(1, 2), 4
        )
        doc = report.to_json_dict()
        assert doc["evidence"] is True and doc["valid"] is True
        assert doc["trace"]["running_min"] == "1/2"


class TestAmplify:
    def test_two_fold_halving_is_quarter(self):
        g2 = amplify(affine_toward(Fraction(1), Fraction(1, 2)), 2)
        for q in (Fraction(0), Fraction(1, 3), Fraction(7, 8)):
            assert (1 - g2.evaluate(q)) / (1 - q) == Fraction(1, 4)
        assert g2.evaluate(Fraction(0)) == Fraction(3, 4)

    def test_single_fold_unchanged(self):
        g = affine_toward(Fraction(1), Fraction(1, 2))
        assert amplify(g, 1) is g

    def test_three_fold_third_contraction(self):
        g3 = amplify(affine_toward(Fraction(1), Fraction(1, 3)), 3)
        q = Fraction(1, 5)
        assert (1 - g3.evaluate(q)) / (1 - q) == Fraction(1, 27)

    def test_rejects_zero_fold(self):
        with pytest.raises(ConfigError):
            amplify(identity_translation(), 0)

    @given(st.integers(min_value=1, max_value=12))
    def test_evidence_amplifies_exponentially(self, k):
        g = affine_toward(Fraction(1), Fraction(1, 2))
        rho_k = Fraction(1, 1 << k)
        report = check_total_speedup(geo1(), amplify(g, k), rho_k, 6)
        assert report.valid and report.evidence
        assert all(v == rho_k for _, v in report.trace.entries)


class TestGalleryIdentityControl:
    def test_identity_never_shows_evidence(self):
        for x in default_gallery():
            horizon = 8 if x.attains_at is None else max(1, x.attains_at - 1)
            trace = liminf_record(x, identity_speedup(), horizon)
            assert trace.running_min == 1, x.name
