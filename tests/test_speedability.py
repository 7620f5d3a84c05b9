import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    set_real,
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
from lce_lab.reals import alternating_gaps, periodic_limit
from lce_lab.speedability import MAX_HORIZON, PROBE_NOT_ABOVE, PROBE_NOT_BELOW, PROBE_NOT_BELOW_LIMIT, RatioTrace, TotalSpeedupReport, check_horizon
from lce_lab import speedability
from lce_lab.cli import main


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

    def test_csv_text_has_the_header_and_crlf_line_ends(self):
        trace = liminf_record(geo1(), linear_speedup(2), 2)
        assert trace.to_csv() == (
            "n,ratio_num,ratio_den,running_min_num,running_min_den\r\n"
            "0,1,1,1,1\r\n"
            "1,1,2,1,2\r\n"
            "2,1,4,1,4\r\n"
        )
        assert RatioTrace().to_csv() == "n,ratio_num,ratio_den,running_min_num,running_min_den\r\n"

    def test_speedup_is_evaluated_once_per_index(self):
        calls = []

        def double(n):
            calls.append(n)
            return 2 * n

        trace = liminf_record(geo1(), SpeedUp("counted", double), 10)
        assert calls == list(range(11))
        assert trace.running_min == Fraction(1, 1024)

    def test_running_min_is_read_from_the_entries(self):
        assert RatioTrace().running_min is None
        trace = RatioTrace([(0, Fraction(1, 2)), (1, Fraction(1, 8)), (2, Fraction(1, 4))])
        assert trace.running_min == Fraction(1, 8)
        assert trace.evidence_at(Fraction(1, 8)) and not trace.evidence_at(Fraction(1, 9))
        trace.append(3, Fraction(1, 16))
        assert trace.running_min == Fraction(1, 16)

    @pytest.mark.parametrize("translation, code", [("affine:1/2", 0), ("affine:3/4", 1)])
    def test_a_speed_check_report_scans_its_trace_once(self, translation, code, monkeypatch, capsys):
        # Each scan for the running minimum compares every entry after the first.
        compared = []
        monkeypatch.setattr(speedability, "_below", lambda p, q: compared.append(p) or p < q)
        argv = ["speed-check", "--real", "geometric:1", "--translation", translation, "--rho", "1/2"]
        assert main(argv) == code
        entries = json.loads(capsys.readouterr().out)["trace"]["entries"]
        assert len(compared) == len(entries) - 1 > 0


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

    def test_evidence_is_read_from_the_trace(self):
        trace = RatioTrace([(0, Fraction(1, 2))])
        report = TotalSpeedupReport(Fraction(1, 2), trace)
        assert report.evidence and report.valid
        trace.append(1, Fraction(1, 4))
        assert not TotalSpeedupReport(Fraction(1, 8), trace).evidence

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

    def test_fold_count_is_bounded_by_the_horizon(self):
        # k folds of an affine map carry k-bit integers through every probe.
        g = affine_toward(Fraction(1), Fraction(1, 2))
        assert amplify(g, MAX_HORIZON).name == f"{g.name}^{MAX_HORIZON}"
        with pytest.raises(ConfigError, match="^amplification count must be <= 4096, got 4097$"):
            amplify(g, MAX_HORIZON + 1)

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


def loop_of(g):
    """The same map without ``affine``: checks and searches take the evaluate loop and the search from i+1."""
    return replace(g, affine=None)


def attaining():
    """Limit 7/8, attained at stage 3."""
    return omega_toy(PrefixMachine("m", {"0": "1", "10": "0", "110": "11"}), {"0": 1, "10": 3, "110": 3}, name="attains")


gaps = st.fractions(min_value=Fraction(1, 40), max_value=4, max_denominator=40)
contractions = st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40)


def speed_reals():
    return [
        geo1(),
        geometric(Fraction(3, 4), Fraction(2, 3), Fraction(5, 4), name="starts_below_0"),
        set_real(lambda i: i % 2 == 1, periodic_limit("", "01"), name="odds"),
        attaining(),
    ]


class TestAffineDecider:
    """``affine_toward(limit, s)`` decided without evaluating it, against the evaluate loop."""

    @settings(max_examples=60)
    @given(st.fractions(min_value=-2, max_value=3, max_denominator=20), contractions, gaps, contractions, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=30), st.booleans())
    def test_matches_the_loop_on_geometric_reals(self, limit, ratio_, gap0, s, k, horizon, on_limit):
        x = geometric(limit, ratio_, gap0)
        target = limit if on_limit else limit - gap0 / 3
        g = amplify(affine_toward(target, s), k)
        rho = Fraction(1, 2)
        assert check_total_speedup(x, g, rho, horizon).to_json_dict() == check_total_speedup(x, loop_of(g), rho, horizon).to_json_dict()

    @pytest.mark.parametrize("horizon", [1, 2, 3, 10, 40])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_the_loop_on_every_kind(self, horizon, k):
        for x in speed_reals():
            for target in (x.limit, x.limit + Fraction(1, 7), x.limit - Fraction(1, 9)):
                g = amplify(affine_toward(target, Fraction(2, 3)), k)
                decided = check_total_speedup(x, g, Fraction(1, 4), horizon)
                assert decided.to_json_dict() == check_total_speedup(x, loop_of(g), Fraction(1, 4), horizon).to_json_dict(), (x.name, target)

    def test_limit_attained_is_a_probe_violation_and_nothing_is_evaluated(self):
        calls = []
        g = affine_toward(Fraction(7, 8), Fraction(1, 2))
        counted = replace(g, evaluate=lambda q: calls.append(q) or g.evaluate(q))
        report = check_total_speedup(attaining(), counted, Fraction(1, 2), 6)
        assert calls == []
        assert report.violations == [(Fraction(7, 8), PROBE_NOT_BELOW_LIMIT)]
        assert {value for _, value in report.trace.entries} == {Fraction(1, 2)}
        assert not report.valid and report.evidence

    def test_other_targets_keep_the_loop(self):
        calls = []
        g = affine_toward(Fraction(2), Fraction(1, 2))
        counted = replace(g, evaluate=lambda q: calls.append(q) or g.evaluate(q))
        check_total_speedup(geo1(), counted, Fraction(1, 2), 4)
        assert len(calls) == 5  # a_0 = 0 and the four shared probes


class TestWarmSearch:
    """``speedup_from_translation`` of an affine map starts at f(i-1); the search from i+1 is the reference."""

    @staticmethod
    def outcomes(f, n):
        result = []
        for i in range(n):
            try:
                result.append(f.evaluate(i))
            except SearchExhaustedError as e:
                result.append(str(e))
        return result

    @settings(max_examples=60)
    @given(st.fractions(min_value=-2, max_value=3, max_denominator=20), contractions, gaps, contractions, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=40))
    def test_matches_the_cold_search_under_a_small_cap(self, limit, ratio_, gap0, s, k, cap):
        x = geometric(limit, ratio_, gap0)
        g = amplify(affine_toward(limit, s), k)
        warm = speedup_from_translation(x, g, search_cap=cap)
        cold = speedup_from_translation(x, loop_of(g), search_cap=cap)
        assert self.outcomes(warm, 30) == self.outcomes(cold, 30)

    @pytest.mark.parametrize("cap", range(2, 12))
    def test_answers_past_the_cap(self, cap):
        # f(i) = i + 3 on 1 - 2**-n with s = 1/2: f(cap - 2) = cap + 1 is past the cap,
        # which the search from i+1 still returns when its doubling lands on it
        g = affine_toward(Fraction(1), Fraction(1, 2))
        warm = self.outcomes(speedup_from_translation(geo1(), g, search_cap=cap), 16)
        assert warm == self.outcomes(speedup_from_translation(geo1(), loop_of(g), search_cap=cap), 16)
        assert any(isinstance(v, int) and v > cap for v in warm)

    def test_other_kinds_and_off_limit_targets(self):
        for x in speed_reals():
            for target in (x.limit, x.limit + Fraction(1, 7)):
                g = affine_toward(target, Fraction(3, 4))
                for cap in (5, 60):
                    warm = self.outcomes(speedup_from_translation(x, g, search_cap=cap), 20)
                    assert warm == self.outcomes(speedup_from_translation(x, loop_of(g), search_cap=cap), 20), (x.name, target, cap)

    def test_warm_start_reads_fewer_approximations(self):
        seen = []
        base = geometric(Fraction(1), Fraction(9, 10))
        x = replace(base, approx=lambda n: seen.append(n) or base.approx(n))
        g = affine_toward(Fraction(1), Fraction(8, 27))

        def reads(h):
            seen.clear()
            f = speedup_from_translation(x, h)
            return [f.evaluate(i) for i in range(25)], len(seen)

        (warm, warm_reads), (cold, cold_reads) = reads(g), reads(loop_of(g))
        assert warm == cold and warm_reads < cold_reads / 2
