import contextlib
import dataclasses
import json
import signal
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce_lab import (
    DyadicGrid,
    Schedule,
    TranslationWitness,
    affine_witness,
    check_witness,
    compose_witnesses,
    computable_least_witness,
    default_gallery,
    default_samples,
    dyadic_grid,
    dyadic_samples,
    evens,
    geometric,
    identity_witness,
    k_bound_from_witness,
    per_length_witness,
    scale,
    scaling_witness,
    set_real,
)
from lce_lab import reducibility
from lce_lab.dyadic import canonical_length, dyadic_length, is_dyadic, truncate
from lce_lab.errors import ConfigError, DomainError, LabError, PreconditionError
from lce_lab.hyperimmunity import total_witness_from_majorizer
from lce_lab.registry import build_real
from lce_lab.reducibility import (
    MAX_ENUMERATION_BITS,
    REASON_GAP_BOUND,
    REASON_NOT_BELOW_ALPHA,
    REASON_UNDEFINED,
    Violation,
    ViolationReport,
    _count_below,
)
from lce_lab.util import dump_json, rational_str


def real(limit, name="r"):
    return geometric(Fraction(limit), name=name)


def reference_violations(alpha, beta, witness, samples):
    """The checker as a plain Fraction loop: the oracle for the integer kernel.
    Returns checked, skipped, the ``Violation``s sorted by sample, and the
    largest ratio seen.

    Unlike the per-denominator slack cache it once had, it validates every
    weakened sample, so an out-of-range dyadic always raises.
    """
    a_limit, b_limit = alpha.limit, beta.limit
    c = witness.constant
    checked = skipped = 0
    violations = []
    best = None
    for q in samples:
        if not q < b_limit:
            skipped += 1
            continue
        checked += 1
        phi = witness.translate(q)
        if phi is None:
            violations.append(Violation(q, REASON_UNDEFINED, None, None))
            continue
        if not phi < a_limit:
            violations.append(Violation(q, REASON_NOT_BELOW_ALPHA, phi, None))
            continue
        denom = b_limit - q
        diff = a_limit - phi
        bound = c * denom
        if witness.weakened:
            bound += Fraction(1, 1 << dyadic_length(q))
        if best is None or diff / denom > best:
            best = diff / denom
        if not diff < bound:
            violations.append(Violation(q, REASON_GAP_BOUND, phi, bound))
    violations.sort(key=lambda v: v.sample)
    return checked, skipped, violations, best


def integer_rows(violations):
    """``ViolationReport.rows`` for ``Violation``s: (k, h, reason, phi_num,
    phi_den, bound_num, bound_den), with 0, 0 for a None."""
    pair = lambda q: (0, 0) if q is None else (q.numerator, q.denominator)  # noqa: E731
    return [(v.sample.numerator, v.sample.denominator, v.reason, *pair(v.phi), *pair(v.bound)) for v in violations]


def reference_check_witness(alpha, beta, witness, samples):
    """``reference_violations`` as a report."""
    checked, skipped, violations, best = reference_violations(alpha, beta, witness, samples)
    return ViolationReport(witness.name, checked, skipped, integer_rows(violations), best)


class TestCheckWitness:
    def test_halving_witness_passes(self):
        # alpha = 1/4, beta = 1/2, phi(q) = q/2, c = 1:
        # alpha - phi(q) = (1/2)(1/2 - q) < 1 * (1/2 - q) at every sample.
        w = TranslationWitness("halve", lambda q: q / 2, Fraction(1))
        report = check_witness(
            real("1/4"), real("1/2"), w, [Fraction(0), Fraction(1, 4), Fraction(3, 8)]
        )
        assert report.passed and report.samples_checked == 3 and report.skipped == 0
        for q in (Fraction(0), Fraction(1, 4), Fraction(3, 8)):
            assert Fraction(1, 4) - q / 2 < Fraction(1, 2) - q

    def test_identity_fails_downward(self):
        report = check_witness(
            real("1/2"), real("1/4"), identity_witness(Fraction(1)), [Fraction(15, 64)]
        )
        assert not report.passed
        (v,) = report.violations
        assert v.sample == Fraction(15, 64) and v.reason == REASON_GAP_BOUND
        # 17/64 misses the bound 1/64 by a mile; recompute both sides here.
        assert Fraction(1, 2) - Fraction(15, 64) == Fraction(17, 64)
        assert Fraction(1, 4) - Fraction(15, 64) == Fraction(1, 64)

    def test_self_reduction_with_constant_two(self):
        x = real("2/3")
        report = check_witness(x, x, identity_witness(), dyadic_samples(x.limit, 200))
        assert report.passed and report.samples_checked == 200

    def test_skips_samples_at_or_above_beta(self):
        report = check_witness(
            real("1/2"), real("1/4"), identity_witness(), [Fraction(1, 4), Fraction(1, 2), Fraction(1, 8)]
        )
        assert report.skipped == 2 and report.samples_checked == 1

    def test_undefined_reported_for_partial_witness(self):
        w = TranslationWitness(
            "partial", lambda q: None if q > 0 else q, Fraction(2), total=False
        )
        report = check_witness(real("1/2"), real("1/2"), w, [Fraction(0), Fraction(1, 4)])
        assert [v.reason for v in report.violations] == [REASON_UNDEFINED]

    def test_not_below_alpha_reported(self):
        w = TranslationWitness("big", lambda q: Fraction(9), Fraction(1))
        report = check_witness(real("1/2"), real("1"), w, [Fraction(1, 4)])
        assert [v.reason for v in report.violations] == [REASON_NOT_BELOW_ALPHA]

    def test_weakened_needs_dyadic_samples(self):
        w = TranslationWitness("wk", lambda q: q, Fraction(1), weakened=True)
        with pytest.raises(DomainError):
            check_witness(real("1/2"), real("1"), w, [Fraction(1, 3)])

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(ConfigError):
            TranslationWitness("bad", lambda q: q, Fraction(0))

    def test_max_ratio_tracks_observed_constant(self):
        w = TranslationWitness("halve", lambda q: q / 2, Fraction(1))
        report = check_witness(
            real("1/4"), real("1/2"), w, [Fraction(0), Fraction(1, 4), Fraction(3, 8)]
        )
        assert report.max_ratio_seen == Fraction(1, 2)

    def test_least_witness_rejects_non_dyadic_sample(self):
        x = real("5/8")
        with pytest.raises(DomainError, match="dyadic_length needs a dyadic rational, got 7/18"):
            check_witness(x, real("7/9"), computable_least_witness(x), [Fraction(1, 4), Fraction(7, 18)])

    @given(st.randoms(use_true_random=False))
    def test_report_ignores_sample_order(self, rng):
        # A grid's violations are left in grid order; any other input is sorted.
        cases = [
            # a Fraction per grid sample: identity with c = 2 fails on [1/3, 1/2)
            ("2/3", "1/2", identity_witness(Fraction(2))),
            # decided per length: least(3/4), strict and with c = 1/64, fails near q = 1/2
            ("3/4", "1/2", dataclasses.replace(
                computable_least_witness(real("3/4")), weakened=False, constant=Fraction(1, 64)
            )),
        ]
        samples = dyadic_grid(9, Fraction(1))
        for alpha, beta, w in cases:
            x, y = real(alpha, "a"), real(beta, "b")
            report = check_witness(x, y, w, samples).to_json_dict()
            assert len(report["violations"]) > 40
            shuffled = list(samples)
            rng.shuffle(shuffled)
            for reordered in (shuffled, list(samples)[::-1]):
                assert check_witness(x, y, w, reordered).to_json_dict() == report

    @pytest.mark.parametrize("order", [1, -1])
    def test_weakened_rejects_out_of_range_dyadic_in_any_order(self, order):
        w = TranslationWitness("wk", lambda q: Fraction(0), Fraction(1), weakened=True)
        samples = [Fraction(1, 4), Fraction(-1, 4)][::order]
        with pytest.raises(DomainError, match="0 <= q < 1, got -1/4"):
            check_witness(real("1/2"), real("1"), w, samples)

    def test_violations_sorted_by_sample(self):
        w = identity_witness(Fraction(1))
        report = check_witness(
            real("1/2"), real("1/4"), w, [Fraction(15, 64), Fraction(3, 64), Fraction(9, 64)]
        )
        values = [v.sample for v in report.violations]
        assert values == sorted(values)


class TestScalingWitness:
    def test_forward_example_r_two(self):
        w = scaling_witness(Fraction(2), "forward")
        assert w.translate(Fraction(1, 4)) == Fraction(1, 2)
        assert w.constant == 3
        # against (2*(1/3), 1/3): value below 2/3, miss below 3*(1/3 - 1/4).
        assert Fraction(2, 3) - Fraction(1, 2) < 3 * (Fraction(1, 3) - Fraction(1, 4))

    def test_r_one_is_identity_with_constant_two(self):
        w = scaling_witness(Fraction(1), "forward")
        assert w.constant == 2
        x = real("2/3")
        assert check_witness(x, x, w, dyadic_samples(x.limit, 100)).passed

    def test_backward_example_r_third(self):
        w = scaling_witness(Fraction(1, 3), "backward")
        assert w.translate(Fraction(1, 4)) == Fraction(3, 4)
        assert w.constant == 4
        assert 1 - Fraction(3, 4) < 4 * (Fraction(1, 3) - Fraction(1, 4))

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigError):
            scaling_witness(Fraction(0), "forward")
        with pytest.raises(ConfigError):
            scaling_witness(Fraction(1), "sideways")

    @pytest.mark.parametrize("r", ["1/3", "1/2", "2", "5"])
    def test_both_directions_pass_on_gallery(self, r):
        r = Fraction(r)
        for x in default_gallery():
            fwd = check_witness(
                scale(x, r), x, scaling_witness(r, "forward"), dyadic_samples(x.limit, 100)
            )
            assert fwd.passed and fwd.samples_checked == 100, (x.name, "forward")
            rx = scale(x, r)
            bwd = check_witness(
                x, rx, scaling_witness(r, "backward"), dyadic_samples(rx.limit, 100)
            )
            assert bwd.passed and bwd.samples_checked == 100, (x.name, "backward")


class TestComposition:
    def test_transitivity_on_concrete_triple(self):
        # alpha = 1/3 below beta = 2/3 by halving; beta = 2/3 below gamma = 1 by scaling.
        w1 = TranslationWitness("halve", lambda q: q / 2, Fraction(1))
        w2 = scaling_witness(Fraction(2, 3), "forward")
        alpha, beta, gamma = real("1/3", "a"), real("2/3", "b"), real("1", "c")
        samples = dyadic_samples(gamma.limit, 400)
        assert check_witness(beta, gamma, w2, samples).passed
        composed = compose_witnesses(w1, w2)
        assert composed.constant == w1.constant * w2.constant
        report = check_witness(alpha, gamma, composed, samples)
        assert report.passed and report.samples_checked == 400

    def test_partiality_propagates(self):
        part = TranslationWitness("p", lambda q: None, Fraction(1), total=False)
        composed = compose_witnesses(identity_witness(), part)
        assert composed.translate(Fraction(1, 2)) is None
        assert not composed.total

    def test_weakened_pieces_rejected(self):
        wk = TranslationWitness("wk", lambda q: q, Fraction(1), weakened=True)
        with pytest.raises(ConfigError):
            compose_witnesses(wk, identity_witness())

    def test_affine_pieces_compose_to_an_affine_witness(self):
        outer = affine_witness("outer", Fraction(2, 3), Fraction(1, 5), Fraction(3))
        inner = scaling_witness(Fraction(3, 4), "backward")
        composed = compose_witnesses(outer, inner)
        assert composed.affine == (Fraction(8, 9), Fraction(1, 5))
        assert (composed.name, composed.constant, composed.total) == ("outer.scaling(3/4,backward)", 3 * Fraction(7, 3), True)
        for q in (Fraction(0), Fraction(5, 8), Fraction(-3, 7), Fraction(9, 4)):
            assert composed.translate(q) == outer.translate(inner.translate(q))

    def test_affine_composite_keeps_partiality(self):
        part = dataclasses.replace(identity_witness(), total=False)
        composed = compose_witnesses(scaling_witness(Fraction(1, 2), "forward"), part)
        assert composed.affine is not None and not composed.total

    def test_affine_composite_is_decided_past_the_per_sample_cap(self):
        composed = compose_witnesses(scaling_witness(Fraction(1, 2), "forward"), identity_witness())
        assert (composed.name, composed.constant) == ("scaling(1/2,forward).identity", 3)
        grid = DyadicGrid(21, 1 << 21)
        assert grid.size > 1 << MAX_ENUMERATION_BITS
        report = check_witness(real("1/2", "a"), real("1", "b"), composed, grid)
        assert report.passed and report.samples_checked == 1 << 21


class TestLeastWitness:
    def test_truncation_values(self):
        w = computable_least_witness(set_real(lambda i: i % 2 == 0, Fraction(2, 3), name="e"))
        assert w.translate(Fraction(1, 2)) == Fraction(1, 2)  # two bits of 2/3
        assert Fraction(2, 3) - w.translate(Fraction(1, 2)) == Fraction(1, 6)
        assert w.translate(Fraction(0)) == Fraction(1, 2)     # one bit of 2/3
        assert w.weakened and w.constant == 1

    def test_dyadic_limit_uses_padding(self):
        w = computable_least_witness(real("1/2"))
        q = Fraction(1, 2)  # |q| = 1
        assert w.translate(q) == Fraction(1, 2) - Fraction(1, 8)

    def test_passes_against_every_gallery_real(self):
        for a in ("1/3", "2/3", "5/8"):
            alpha = real(a, f"alpha{a}")
            w = computable_least_witness(alpha)
            for beta in default_gallery():
                grid = dyadic_grid(10, beta.limit)
                report = check_witness(alpha, beta, w, grid)
                assert report.passed, (a, beta.name)

    def test_total_on_awkward_rationals(self):
        w = computable_least_witness(real("2/3"))
        for q in (Fraction(-5), Fraction(1, 3), Fraction(7, 5), Fraction(22, 7)):
            value = w.translate(q)
            assert value < Fraction(2, 3)

    # Integer part -2 to 3 and a fractional part that is dyadic or not, so
    # both branches of at_length and negative limits are reached.
    LIMITS = st.builds(
        lambda whole, frac: whole + frac,
        st.integers(-2, 3),
        st.one_of(
            st.builds(lambda k, m: Fraction(k % (1 << m), 1 << m), st.integers(0, 1 << 20), st.integers(0, 20)),
            st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda f: f < 1),
        ),
    )

    @given(
        LIMITS,
        st.one_of(
            st.builds(Fraction, st.integers(0, 255), st.sampled_from([1, 2, 4, 64, 256])),
            st.fractions(min_value=-2, max_value=3, max_denominator=50),
        ),
    )
    def test_translate_is_at_length_of_canonical_length(self, limit, q):
        w = computable_least_witness(geometric(limit, gap0=Fraction(1)))
        length = canonical_length(q)
        assert w.translate(q) == Fraction(*w.at_length(length))

    @given(LIMITS, st.integers(0, 96))
    def test_at_length_is_the_plain_truncation(self, limit, length):
        # Lengths past 64, the cap of canonical_length, are reached through
        # at_length alone.  The pair is over 2**(length+1), or over limit's
        # denominator times 2**(length+2) when limit is dyadic.
        w = computable_least_witness(geometric(limit, gap0=Fraction(1)))
        if is_dyadic(limit):
            plain = limit - Fraction(1, 2 ** (length + 2))
            den = limit.denominator << (length + 2)
        else:
            whole = limit.numerator // limit.denominator
            plain = whole + Fraction(truncate(limit - whole, length + 1), 2 ** (length + 1))
            den = 1 << (length + 1)
        num, got_den = w.at_length(length)
        assert got_den == den and Fraction(num, den) == plain < limit

    @pytest.mark.parametrize("a", ["7/3", "5/4"])
    @pytest.mark.parametrize("b", ["1", "10/11"])
    def test_grid_above_one_matches_the_oracle(self, a, b):
        # alpha > 1, non-dyadic and dyadic, decided per length on a grid in [0,1)
        alpha, beta = real(a, "alpha"), real(b, "beta")
        w = computable_least_witness(alpha)
        grid = dyadic_grid(14, Fraction(1))
        report = check_witness(alpha, beta, w, grid)
        assert report.to_json_dict() == reference_check_witness(alpha, beta, w, list(grid)).to_json_dict()
        assert report.samples_checked == _count_below(14, beta.limit)


class TestPerLengthWitness:
    # One integer pair per length, in any terms, undefined ones included; a
    # drawn q is a dyadic in [0,1), a non-dyadic rational, or a rational
    # outside [0,1).
    VALUES = st.none() | st.builds(
        lambda f, t: (f.numerator * t, f.denominator * t),
        st.fractions(min_value=-1, max_value=3, max_denominator=48),
        st.integers(1, 5),
    )
    SAMPLES = st.one_of(
        st.builds(Fraction, st.integers(0, 1023), st.sampled_from([1, 2, 4, 64, 1024])),
        st.fractions(min_value=-2, max_value=3, max_denominator=50),
        st.builds(Fraction, st.integers(-(1 << 70), 1 << 70), st.integers(1, 1 << 70)),
    )

    @given(st.lists(VALUES, min_size=1, max_size=70), SAMPLES)
    def test_translate_is_the_value_at_the_canonical_length(self, table, q):
        lookup = lambda length: table[length % len(table)]
        w = per_length_witness("table", lookup, Fraction(3, 2))
        length = canonical_length(q)
        if q.denominator & (q.denominator - 1) == 0 and 0 <= q < 1:
            assert length == dyadic_length(q)
        else:
            assert 0 <= length <= 64
        pair = lookup(length)
        assert w.at_length(length) == pair
        assert w.translate(q) == (None if pair is None else Fraction(*pair))

    def test_fields_and_one_call_per_length(self):
        calls = []

        def lookup(length):
            calls.append(length)
            return (2, 6) if length else None

        w = per_length_witness("keyed", lookup, Fraction(5), weakened=True)
        assert (w.name, w.constant, w.total, w.weakened) == ("keyed", 5, True, True)
        values = [w.translate(Fraction(k, 8)) for k in range(8)] + [w.translate(Fraction(1, 3))]
        assert values == [None] + [Fraction(1, 3)] * 8
        assert type(values[1]) is Fraction and w.at_length(3) == (2, 6)
        assert calls == [0, 3, 2, 1, 64]


class TestSampleSchedules:
    def test_grid_is_every_multiple_below(self):
        assert list(dyadic_grid(3, Fraction(1, 2))) == [Fraction(k, 8) for k in range(4)]

    def test_grid_excludes_exact_bound(self):
        assert Fraction(1, 2) not in dyadic_grid(1, Fraction(1, 2))

    @given(st.integers(min_value=1, max_value=400))
    def test_dyadic_samples_count_and_bound(self, count):
        samples = dyadic_samples(Fraction(2, 3), count)
        assert len(samples) == count
        assert all(q < Fraction(2, 3) for q in samples)
        assert list(samples) == sorted(set(samples))

    def test_dyadic_samples_is_a_grid_prefix(self):
        # 2/3 holds 6 multiples of 1/8: the shallowest grid with 5 samples.
        assert dyadic_samples(Fraction(2, 3), 5) == DyadicGrid(3, 5)
        assert list(dyadic_samples(Fraction(2, 3), 5)) == list(dyadic_grid(3, Fraction(2, 3)))[:5]

    def test_huge_sample_count_is_lazy(self):
        samples = dyadic_samples(Fraction(1), 10**9)
        assert isinstance(samples, DyadicGrid)
        assert len(samples) == 10**9 and samples.depth == 30
        assert Fraction(10**9 - 1, 1 << 30) in samples and Fraction(10**9, 1 << 30) not in samples

    @given(
        st.fractions(min_value="1/1000000", max_value=1000, max_denominator=1 << 20) | st.builds(lambda e: Fraction(1, 1 << e), st.integers(0, 70)),
        st.integers(1, 1 << 20) | st.builds(lambda e, d: max((1 << e) + d, 1), st.integers(0, 70), st.integers(-1, 1)),
    )
    def test_dyadic_samples_take_the_shallowest_grid(self, below, count):
        # The reference: deepen the grid one level at a time until it holds the count.
        depth = 0
        while _count_below(depth, below) < count:
            depth += 1
        assert dyadic_samples(below, count) == DyadicGrid(depth, count)

    def test_default_samples_include_approximations(self):
        beta = real("1")
        samples = default_samples(beta, identity_witness(), grid_depth=4)
        assert beta.approx(5) in samples.points
        assert all(q < beta.limit for q in samples)

    @settings(max_examples=60)
    @given(
        # 7/9 approximates through non-dyadic points, which a weakened witness drops
        st.sampled_from([*default_gallery(), geometric(Fraction(1), Fraction(3, 4), name="b"), real("7/9")]),
        st.integers(0, 8),
        st.booleans(),
    )
    def test_default_samples_are_the_grid_then_the_points_off_it(self, beta, depth, weakened):
        w = TranslationWitness("w", lambda q: q, Fraction(2), weakened=weakened)
        grid = dyadic_grid(depth, beta.limit)
        points = {beta.approx(i) for i in range(65)}
        off_grid = sorted(q for q in points if q < beta.limit and q not in grid and (is_dyadic(q) or not weakened))
        samples = default_samples(beta, w, depth)
        assert samples == Schedule(grid, tuple(off_grid))
        assert list(samples) == [*grid, *off_grid] and len(samples) == len(grid) + len(off_grid)
        if not weakened:
            points.update(grid)
            assert sorted(samples) == sorted(q for q in points if q < beta.limit)

    def test_a_schedule_is_iterated_and_counted_only(self):
        samples = default_samples(real("1"), identity_witness(), 64)
        assert samples.grid == dyadic_grid(64, Fraction(1)) and not isinstance(samples, Sequence)
        with pytest.raises(TypeError):
            samples[0]
        assert next(iter(samples)) == 0
        with pytest.raises(OverflowError):  # CPython's len stops at sys.maxsize
            len(samples)

    @pytest.mark.parametrize("alpha", ["5/8", "2/3"])
    def test_report_on_the_default_schedule_ignores_its_order(self, alpha):
        # Ratio 3/4 puts dyadic approximation points off the depth-10 grid,
        # between its points, so neither schedule below is ascending.
        x, y = real(alpha, "a"), geometric(Fraction(1), Fraction(3, 4), name="b")
        for w in [identity_witness(Fraction(2)), computable_least_witness(x)]:
            schedule = default_samples(y, w)
            assert list(schedule) != sorted(schedule)
            assert check_witness(x, y, w, schedule) == check_witness(x, y, w, sorted(schedule))

    def test_default_samples_take_any_depth(self):
        # The schedule is lazy, so only the deciders cap its grid: the loop
        # by samples, a closed-form or per-length decider by rows.
        alpha, beta = real("5/8"), real("1")
        least = computable_least_witness(alpha)
        for w in [identity_witness(), least]:
            assert default_samples(beta, w, 40).grid == dyadic_grid(40, beta.limit)
        # Below beta = 2, least's grid stops at 1 and is decided per length; a
        # grid reaching past 1 would run the loop, which refuses it.
        wide = real("2")
        clipped = default_samples(wide, least, 40)
        assert clipped.grid == dyadic_grid(40, Fraction(1)) and clipped.points == ()
        report = check_witness(alpha, wide, least, clipped)
        assert report.passed and report.samples_checked == 1 << 40
        with pytest.raises(PreconditionError, match=r"^checking 2199023255552 grid samples one by one refused"):
            check_witness(alpha, wide, least, dyadic_grid(40, wide.limit))
        # identity's phi = q is not below alpha = 5/8 at 3/8 of the depth-40 grid.
        with pytest.raises(PreconditionError, match=r"^listing 412316860416 violation rows refused \(cap 2\*\*20\)$"):
            check_witness(alpha, beta, identity_witness(), default_samples(beta, identity_witness(), 40))

    def test_truth_value_at_any_depth(self):
        # At depth 63 the schedule's len passes sys.maxsize; bool never asks for it.
        assert default_samples(geometric(Fraction(1)), identity_witness(), 63)
        assert not Schedule(DyadicGrid(63, 0), ())
        assert Schedule(DyadicGrid(63, 0), (Fraction(1, 3),))


class TestDyadicGrid:
    GRID = DyadicGrid(3, 6)
    LIST = [Fraction(k, 8) for k in range(6)]

    def test_is_a_frozen_schedule_not_a_sequence(self):
        assert not isinstance(self.GRID, Sequence)
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.GRID.size = 7
        with pytest.raises(TypeError):
            self.GRID[0]

    def test_rejects_negative_shape(self):
        with pytest.raises(ConfigError, match="depth"):
            DyadicGrid(-1, 3)
        with pytest.raises(ConfigError, match="size"):
            DyadicGrid(2, -1)

    def test_truth_value_at_any_size(self):
        assert dyadic_grid(64, Fraction(1)) and self.GRID and DyadicGrid(0, 1)
        assert not DyadicGrid(5, 0) and not dyadic_grid(64, Fraction(0))

    def test_len_and_iteration(self):
        assert len(self.GRID) == 6 and len(DyadicGrid(5, 0)) == 0
        assert list(self.GRID) == self.LIST
        assert all(type(q) is Fraction for q in self.GRID)

    def test_equality_is_the_shape(self):
        assert self.GRID == DyadicGrid(3, 6) and hash(self.GRID) == hash(DyadicGrid(3, 6))
        assert self.GRID != DyadicGrid(4, 6) and self.GRID != DyadicGrid(3, 5)
        assert self.GRID != self.LIST

    @given(
        st.one_of(
            st.fractions(min_value=-1, max_value=2, max_denominator=32),
            st.integers(-2, 2),
            st.sampled_from([0.25, 0.3, 1.0, float("nan"), float("inf"), "1/8", None]),
        )
    )
    def test_membership_like_a_list(self, value):
        assert (value in self.GRID) == (value in self.LIST)

    def test_depth_64_never_scans(self):
        # A scan of 2**64 samples never ends, so the alarm turns one into a failure.
        def scanned(signum, frame):
            raise AssertionError("a grid operation scanned the grid")

        grid = dyadic_grid(64, Fraction(1))
        alpha = real("5/8")
        previous = signal.signal(signal.SIGALRM, scanned)
        signal.alarm(5)
        try:
            assert grid
            assert Fraction(3, 4) in grid and Fraction(1, 3) not in grid and 1 not in grid
            assert next(iter(grid)) == 0
            report = check_witness(alpha, real("1"), computable_least_witness(alpha), grid)
            assert report.passed and report.samples_checked == 1 << 64
            # the default schedule: that grid, then the points off it
            beta, least = geometric(Fraction(1), Fraction(3, 4), name="b"), computable_least_witness(alpha)
            schedule = default_samples(beta, least, 64)
            report = check_witness(alpha, beta, least, schedule)
            assert schedule.points and report.passed
            assert report.samples_checked == _count_below(64, beta.limit) + len(schedule.points)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestCheckerAgainstReference:
    @staticmethod
    def reference_verdicts(alpha, beta, phi, c, samples):
        """Straight-line restatement of the strict check, kept independent."""
        out = []
        for q in samples:
            if q >= beta:
                continue
            value = phi(q)
            if value >= alpha:
                out.append((q, "not_below_alpha"))
            elif alpha - value >= c * (beta - q):
                out.append((q, "gap_bound_failed"))
        return sorted(out)

    @given(
        st.fractions(min_value=0, max_value=2),
        st.fractions(min_value="1/8", max_value=2),
        st.fractions(min_value=-1, max_value=1),
        st.fractions(min_value=0, max_value=1),
        st.fractions(min_value="1/4", max_value=4),
        st.lists(st.fractions(min_value=0, max_value=2), max_size=25),
    )
    def test_random_affine_witnesses(self, a, b, u, v, c, samples):
        alpha, beta = geometric(a + 1, name="a"), geometric(b, name="b")
        phi = lambda q: u + v * q
        w = TranslationWitness("affine", phi, c)
        report = check_witness(alpha, beta, w, samples)
        expect = self.reference_verdicts(alpha.limit, beta.limit, phi, c, samples)
        assert [(x.sample, x.reason) for x in report.violations] == expect
        assert report.passed == (not expect)
        if report.passed and report.samples_checked:
            assert report.max_ratio_seen < c


def length_keyed(u, v):
    """A length-keyed translation u + v * 2**-length, undefined on every
    third length, as an integer pair that is not in lowest terms in general."""

    (un, ud), (vn, vd) = u.as_integer_ratio(), v.as_integer_ratio()

    def at_length(length):
        return None if length % 3 == 2 else ((un * vd << length) + vn * ud, ud * vd << length)

    return at_length


def as_pairs(table):
    """Each per-length value of a table of ``Fraction``s or None as its integer pair."""
    return [None if value is None else (value.numerator, value.denominator) for value in table]


@st.composite
def witnesses(draw, alpha, constant, u, v):
    """Witness shapes with and without ``at_length`` or ``affine``, strict
    and weakened.  The affine ones have a random constant, one equal to
    their slope (c = u) and one below it (c < u)."""
    least = computable_least_witness(alpha)
    slope = draw(st.fractions(min_value="1/16", max_value=3, max_denominator=48))
    offset = v or Fraction(1, 3)
    bits = total_witness_from_majorizer(evens(), lambda n: n + draw(st.integers(0, 3)))
    at_length = length_keyed(u, v)
    weakened = draw(st.booleans())
    # A drawn value per length: undefined lengths, and values at or above
    # alpha, so that whole lengths fail not_below_alpha.
    value = st.none() | st.just(alpha.limit) | st.fractions(min_value=-1, max_value=3, max_denominator=48)
    table = as_pairs(draw(st.lists(value, min_size=1, max_size=12)))
    at_table = lambda length: table[length % len(table)]
    return draw(
        st.sampled_from(
            [
                TranslationWitness("affine", lambda q: u + v * q, constant, weakened=weakened),
                TranslationWitness(
                    "partial",
                    lambda q: None if q.numerator % 3 == 0 else u + v * q,
                    constant,
                    weakened=weakened,
                ),
                TranslationWitness("int", lambda q: int(u), constant, weakened=weakened),
                dataclasses.replace(least, constant=constant, weakened=weakened),
                dataclasses.replace(least, constant=constant, weakened=weakened, at_length=None),
                dataclasses.replace(bits, constant=constant, weakened=weakened),
                per_length_witness("keyed", at_length, constant, weakened=weakened),
                per_length_witness("table", at_table, constant, weakened=weakened),
                identity_witness(constant),
                dataclasses.replace(identity_witness(constant), weakened=weakened),
                dataclasses.replace(scaling_witness(slope, "forward"), constant=constant),
                dataclasses.replace(scaling_witness(slope, "backward"), constant=constant),
                affine_witness("affine_form", slope, offset, constant),
                affine_witness("c_is_u", slope, offset, slope),
                affine_witness("c_below_u", slope, offset, slope * draw(st.fractions(min_value="1/8", max_value="7/8"))),
                # composites: of two affine pieces (affine), and of a plain one
                compose_witnesses(scaling_witness(slope, "forward"), affine_witness("affine_form", slope, offset, constant)),
                compose_witnesses(identity_witness(constant), scaling_witness(slope, "backward")),
                compose_witnesses(TranslationWitness("affine", lambda q: u + v * q, constant), identity_witness()),
            ]
        )
    )


@st.composite
def checker_cases(draw):
    """Random limits, constants and witness shapes that reach every verdict:
    skips, passes, all three violation reasons and non-dyadic samples."""
    limit = st.fractions(min_value="1/16", max_value=3, max_denominator=48)
    alpha, beta = geometric(draw(limit), name="a"), geometric(draw(limit), name="b")
    constant = draw(
        st.just(Fraction(1)) | st.fractions(min_value="1/8", max_value=8, max_denominator=48)
    )
    u = draw(st.fractions(min_value=-1, max_value=3, max_denominator=48))
    v = draw(st.fractions(min_value=-2, max_value=2, max_denominator=48))
    witness = draw(witnesses(alpha, constant, u, v))
    sample = st.one_of(
        st.builds(Fraction, st.integers(-8, 100), st.sampled_from([1, 2, 4, 8, 16, 32])),
        st.integers(-2, 3),
        st.fractions(min_value=-1, max_value=3, max_denominator=24),
    )
    return alpha, beta, witness, draw(st.lists(sample, max_size=30))


@st.composite
def grid_cases(draw):
    """checker_cases over a lazy grid k/2**d for 0 <= k < size.  A size up
    to 2**d keeps the grid inside [0,1), where a witness with at_length is
    decided per length; a larger one puts samples at or above 1 on it."""
    limit = st.fractions(min_value="1/16", max_value=3, max_denominator=48)
    alpha, beta = geometric(draw(limit), name="a"), geometric(draw(limit), name="b")
    constant = draw(
        st.just(Fraction(1)) | st.fractions(min_value="1/8", max_value=8, max_denominator=48)
    )
    u = draw(st.fractions(min_value=-1, max_value=3, max_denominator=48))
    v = draw(st.fractions(min_value=-2, max_value=2, max_denominator=48))
    witness = draw(witnesses(alpha, constant, u, v))
    depth = draw(st.integers(0, 10))
    size = draw(st.integers(0, 1 << depth) | st.just(1 << depth) | st.integers(0, 3 << depth))
    return alpha, beta, witness, DyadicGrid(depth, size)


def _outcome(checker, *args):
    try:
        return checker(*args).to_json_dict()
    except LabError as e:
        return (type(e).__name__, str(e))


class TestIntegerKernelAgainstFractionLoop:
    @settings(max_examples=400)
    @given(checker_cases())
    def test_reports_match(self, case):
        assert _outcome(check_witness, *case) == _outcome(reference_check_witness, *case)

    @settings(max_examples=400)
    @given(grid_cases())
    def test_grid_reports_match(self, case):
        alpha, beta, witness, grid = case
        assert isinstance(grid, DyadicGrid)
        expect = _outcome(reference_check_witness, alpha, beta, witness, list(grid))
        assert _outcome(check_witness, alpha, beta, witness, grid) == expect

    @settings(max_examples=100)
    @given(
        # ratio 3/4 puts dyadic approximation points between the grid's points
        st.sampled_from([*default_gallery(), geometric(Fraction(1), Fraction(3, 4), name="b")]),
        st.sampled_from(["1/3", "5/8", "2/3", "1"]),
        st.integers(0, 12),
        st.data(),
    )
    def test_default_schedule_reports_match(self, beta, alpha, depth, data):
        # The schedule is decided one part at a time, its grid per length
        # where it can be; the oracle reads the same samples as one sorted list.
        alpha = real(alpha, "a")
        constant = data.draw(st.fractions(min_value="1/64", max_value=4, max_denominator=64))
        u = data.draw(st.fractions(min_value=-1, max_value=1, max_denominator=16))
        least = computable_least_witness(alpha)
        w = data.draw(
            st.sampled_from(
                [
                    identity_witness(constant),
                    scaling_witness(constant, "forward"),
                    scaling_witness(constant, "backward"),
                    least,
                    dataclasses.replace(least, weakened=False, constant=constant),
                    per_length_witness("keyed", length_keyed(u, constant), constant),
                    per_length_witness("keyed", length_keyed(u, constant), constant, weakened=True),
                    affine_witness("affine_form", constant, u or Fraction(-1, 3), constant),
                    affine_witness("c_below_u", constant, u, constant / 2),
                ]
            )
        )
        schedule = default_samples(beta, w, depth)
        assert _outcome(check_witness, alpha, beta, w, schedule) == _outcome(
            reference_check_witness, alpha, beta, w, sorted(schedule)
        )

    def test_weakened_grid_beyond_one_raises_like_the_oracle(self):
        alpha, beta = real("2/3"), real("3")
        w = computable_least_witness(alpha)
        grid = dyadic_grid(3, Fraction(3, 2))
        with pytest.raises(DomainError) as got:
            check_witness(alpha, beta, w, grid)
        with pytest.raises(DomainError) as expect:
            reference_check_witness(alpha, beta, w, list(grid))
        assert str(got.value) == str(expect.value) == "dyadic_length needs 0 <= q < 1, got 1"

    def test_at_length_replaces_per_sample_translate(self):
        calls = []
        least = computable_least_witness(real("2/3"))

        def counted(q):
            calls.append(q)
            return least.translate(q)

        w = dataclasses.replace(least, translate=counted)
        report = check_witness(real("2/3"), real("1"), w, dyadic_grid(12, Fraction(1)))
        assert report.passed and report.samples_checked == 1 << 12
        assert calls == []

    def test_per_sample_loop_refuses_a_grid_past_the_cap(self):
        def translate(q):
            raise AssertionError("translated")

        w = TranslationWitness("t", translate, Fraction(2))
        cap = 1 << MAX_ENUMERATION_BITS
        # Without at_length any grid runs the loop; with it, a grid reaching
        # past 1 does (at depth 10, the sample 1 is translated).
        for witness, depth in [(w, 40), (dataclasses.replace(w, at_length=lambda length: (0, 1)), 10)]:
            with pytest.raises(AssertionError, match="translated"):
                check_witness(real("1"), real("2"), witness, DyadicGrid(depth, cap))
            message = rf"^checking {cap + 1} grid samples one by one refused \(cap 2\*\*20\)$"
            with pytest.raises(PreconditionError, match=message):
                check_witness(real("1"), real("2"), witness, DyadicGrid(depth, cap + 1))

    def test_grid_sweep_runs_in_constant_memory(self):
        # The 2**16 samples as a list of Fractions would take about 7.5 MB.
        # Depth 16 rather than 20 because tracing slows the loop ~45-fold.
        # Without at_length the grid runs the per-sample loop.
        alpha, beta = real("2/3"), real("1")
        w = dataclasses.replace(computable_least_witness(alpha), at_length=None)
        tracemalloc.start()
        try:
            report = check_witness(alpha, beta, w, dyadic_grid(16, Fraction(1)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed and report.samples_checked == 1 << 16
        assert peak < 1 << 20


@st.composite
def scaled_pair_cases(draw):
    """Random limits and constant, and two per-length witnesses over one
    drawn table, undefined at random lengths: one answers each value as its
    lowest-terms pair, the other as that pair times its own t >= 1."""
    limit = st.fractions(min_value="1/16", max_value=3, max_denominator=48)
    alpha, beta = geometric(draw(limit), name="a"), geometric(draw(limit), name="b")
    constant = draw(st.just(Fraction(1)) | st.fractions(min_value="1/8", max_value=8, max_denominator=48))
    value = st.none() | st.just(alpha.limit) | st.fractions(min_value=-1, max_value=3, max_denominator=48)
    table = as_pairs(draw(st.lists(value, min_size=1, max_size=12)))
    scales = draw(st.lists(st.integers(1, 6) | st.integers(1, 1 << 64), min_size=len(table), max_size=len(table)))
    scaled = [None if pair is None else (pair[0] * t, pair[1] * t) for pair, t in zip(table, scales)]
    weakened = draw(st.booleans())
    lowest, multiplied = (
        per_length_witness("table", lambda length, values=values: values[length % len(values)], constant, weakened=weakened)
        for values in (table, scaled)
    )
    return alpha, beta, lowest, multiplied


def _report_bytes(checker, *args):
    got = _outcome(checker, *args)
    return dump_json(got) if isinstance(got, dict) else got


def _k_bound(witness, alpha, n):
    try:
        return k_bound_from_witness(witness, alpha, n)
    except LabError as e:
        return (type(e).__name__, str(e))


class TestPairContract:
    """``at_length`` answers an integer pair in any terms: scaling each pair
    by its own t >= 1 moves no report byte and no k-bound."""

    DYADICS = st.lists(st.builds(lambda k, e: Fraction(k % (1 << e), 1 << e), st.integers(0, 1 << 12), st.integers(0, 12)), max_size=30)

    @settings(max_examples=200)
    @given(scaled_pair_cases(), st.integers(0, 10), st.data())
    def test_report_bytes_match_lowest_terms_and_the_fraction_loop(self, case, depth, data):
        alpha, beta, lowest, scaled = case
        grid = DyadicGrid(depth, data.draw(st.integers(0, 1 << depth)))  # inside [0,1)
        for samples in (grid, data.draw(self.DYADICS), default_samples(beta, scaled, depth)):
            got = _report_bytes(check_witness, alpha, beta, scaled, samples)
            assert got == _report_bytes(check_witness, alpha, beta, lowest, samples)
            assert got == _report_bytes(reference_check_witness, alpha, beta, lowest, sorted(samples))

    @settings(max_examples=50)
    @given(scaled_pair_cases())
    def test_k_bound_matches_the_full_enumeration(self, case):
        alpha, _, lowest, scaled = case
        enumerated = dataclasses.replace(scaled, at_length=None)
        for n in range(11):
            assert _k_bound(scaled, alpha, n) == _k_bound(lowest, alpha, n) == _k_bound(enumerated, alpha, n), n


DISPATCH_WITNESSES = {
    # alpha = beta = 3/2, or 1 on the schedule: each kind passes some samples and fails others
    "strict affine": affine_witness("affine", Fraction(3, 4), Fraction(1, 8), Fraction(1)),
    "weakened affine": dataclasses.replace(affine_witness("affine", Fraction(3, 4), Fraction(1, 8), Fraction(1)), weakened=True),
    "strict per-length": per_length_witness("keyed", length_keyed(Fraction(1, 2), Fraction(3, 4)), Fraction(1)),
    "weakened per-length": per_length_witness("keyed", length_keyed(Fraction(1, 2), Fraction(3, 4)), Fraction(1), weakened=True),
    "opaque": TranslationWitness("opaque", lambda q: q / 2 + Fraction(1, 8), Fraction(1)),
}
EACH, GRID = "_check_each", "_check_grid"
SHAPES = ("grid inside [0,1)", "grid past 1", "list", "schedule")
DISPATCH = {  # witness kind -> for each of SHAPES, (the deciders in order, the callables that run)
    "strict affine": [([GRID], set()), ([GRID], set()), ([EACH], set()), ([GRID, EACH], set())],
    "weakened affine": [([EACH], set()), ([EACH], set()), ([EACH], set()), ([EACH, EACH], set())],
    "strict per-length": [([GRID], {"at_length"}), ([EACH], {"at_length", "translate"}), ([EACH], {"at_length"}), ([GRID, EACH], {"at_length"})],
    "weakened per-length": [([GRID], {"at_length"}), ([EACH], {"at_length", "translate"}), ([EACH], {"at_length"}), ([GRID, EACH], {"at_length"})],
    "opaque": [([EACH], {"translate"}), ([EACH], {"translate"}), ([EACH], {"translate"}), ([EACH, EACH], {"translate"})],
}


class TestDispatch:
    """``check_witness`` alone picks each part's decider, of two, by the
    witness's kind and the part's shape; a decider runs only the callables
    its kind allows (an affine witness none), and every pair reports as the
    Fraction loop does."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", list(DISPATCH))
    def test_each_kind_and_shape_takes_its_decider(self, kind, shape, monkeypatch):
        (deciders, allowed), witness = DISPATCH[kind][SHAPES.index(shape)], DISPATCH_WITNESSES[kind]
        ran, decided = set(), []

        def guarded(name, fn):
            def call(x):
                if name not in allowed:
                    raise AssertionError(f"{name}({x}) called")
                ran.add(name)
                return fn(x)

            return call

        for name in (GRID, EACH):
            decide = getattr(reducibility, name)
            monkeypatch.setattr(reducibility, name, lambda *args, decide=decide, name=name: decided.append(name) or decide(*args))
        guarded_witness = dataclasses.replace(
            witness, translate=guarded("translate", witness.translate), at_length=witness.at_length and guarded("at_length", witness.at_length)
        )
        alpha, beta = real("3/2", "a"), real("3/2", "b")
        samples = {
            "grid inside [0,1)": DyadicGrid(4, 16),
            "grid past 1": DyadicGrid(2, 8),  # 0 to 7/4: 1 and 5/4 checked, 3/2 and 7/4 skipped
            "list": [Fraction(3, 8), Fraction(1, 16), Fraction(2), Fraction(7, 8), Fraction(1, 2)],
        }.get(shape)
        if samples is None:  # beta's approximation points 1 - (3/4)**n leave the depth-3 grid from n = 2 on
            alpha, beta = real("1", "a"), geometric(Fraction(1), Fraction(3, 4), name="b")
            samples = default_samples(beta, witness, 3)
            assert samples.points
        got = _outcome(check_witness, alpha, beta, guarded_witness, samples)
        assert decided == deciders and ran == allowed
        assert got == _outcome(reference_check_witness, alpha, beta, witness, sorted(samples))


class TestDepth13Reports:
    """Reports at the size of the sweep-violations benchmark, against the
    Fraction loop on the same samples: phi columns with the odd periods 3, 5
    and 9 or powers of two alone, and q, phi and bound columns of identity."""

    GRID = dyadic_grid(13, Fraction(1))

    @pytest.mark.parametrize(
        "alpha, witness",
        [("1", scaling_witness(Fraction(r), "backward")) for r in ["1/2", "3/5", "5/8", "4/7", "5/9"]]
        # identity with c = 2 fails the gap bound exactly at q >= t
        + [(str(2 - Fraction(t)), identity_witness(Fraction(2))) for t in ["1/2", "5/8", "9/16", "17/32", "7/16"]],
        ids=lambda value: value if isinstance(value, str) else value.name,
    )
    def test_sweep_reports_match(self, alpha, witness):
        alpha, beta = real(alpha, "a"), real("1", "b")
        report = check_witness(alpha, beta, witness, self.GRID)
        assert report.classes and not report.rows
        assert report == reference_check_witness(alpha, beta, witness, list(self.GRID))

    def test_default_schedule_merges_points_with_grid_rows(self):
        # beta's approximation points 1 - (3/4)**n leave the depth-13 grid from n = 7 on
        alpha, beta, w = real("7/4", "a"), geometric(Fraction(1), Fraction(3, 4), name="b"), identity_witness()
        schedule = default_samples(beta, w, 13)
        report = check_witness(alpha, beta, w, schedule)
        assert report.classes and report.rows
        assert report == reference_check_witness(alpha, beta, w, sorted(schedule))

    def test_least_report_with_a_not_below_alpha_class(self):
        # least(2/3) reads 1/2 at lengths 0 and 1, then 5/8 or more: not below alpha = 5/8
        alpha, beta, w = real("5/8", "a"), real("1", "b"), computable_least_witness(real("2/3"))
        report = check_witness(alpha, beta, w, self.GRID)
        assert REASON_NOT_BELOW_ALPHA in {reason for _, _, _, reason, *_ in report.classes}
        assert report == reference_check_witness(alpha, beta, w, list(self.GRID))


def plain_report_json(report, violations):
    """A report's file text from its ``Violation``s alone: ``json.dumps`` of
    one dict per row."""
    text = lambda q: None if q is None else rational_str(q)  # noqa: E731
    doc = {
        "witness": report.witness,
        "passed": report.passed,
        "samples_checked": report.samples_checked,
        "skipped": report.skipped,
        "max_ratio_seen": text(report.max_ratio_seen),
        "violations": [
            {"q": rational_str(v.sample), "reason": v.reason, "phi_q": text(v.phi), "bound": text(v.bound)}
            for v in violations
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestMergedReports:
    """Depth-13 default schedules whose off-grid points merge with grid
    classes: the report's bytes, rows and ``==`` against the Fraction loop."""

    @pytest.mark.parametrize(
        "alpha, witness",
        [
            ("7/4", identity_witness()),  # gap-bound classes and points
            ("5/8", computable_least_witness(real("2/3"))),  # not_below_alpha classes and points
            ("7/8", identity_witness(Fraction(1, 2))),  # gap bound below 3/4, not below alpha from 7/8
        ],
        ids=["identity", "least", "mixed-reasons"],
    )
    def test_merged_rows_match_the_fraction_loop(self, alpha, witness):
        # beta's approximation points 1 - (3/4)**n leave the depth-13 grid from n = 7 on
        alpha, beta = real(alpha, "a"), geometric(Fraction(1), Fraction(3, 4), name="b")
        schedule = default_samples(beta, witness, 13)
        report = check_witness(alpha, beta, witness, schedule)
        expect = reference_check_witness(alpha, beta, witness, sorted(schedule))
        violations = reference_violations(alpha, beta, witness, sorted(schedule))[2]
        assert report.classes and report.rows
        if witness.name.startswith("least"):
            assert {reason for _, _, _, reason, *_ in report.classes} == {REASON_NOT_BELOW_ALPHA}
        assert dump_json(report.to_json_dict()) == plain_report_json(expect, violations)
        assert report.violations == violations
        assert report == expect and expect == report
        rows = json.loads(dump_json(report.to_json_dict()))["violations"]
        assert rows == json.loads(dump_json(expect.to_json_dict()))["violations"] == json.loads(plain_report_json(expect, violations))["violations"]


class TestPerLengthGrid:
    """A grid inside [0,1) against a witness with at_length is decided one
    canonical length at a time, so its cost does not grow with the grid."""

    ALPHAS = {
        "odds_real": set_real(lambda i: i % 2 == 1, Fraction(1, 3), name="odds_real"),
        "evens_real": set_real(lambda i: i % 2 == 0, Fraction(2, 3), name="evens_real"),
        "geo58": geometric(Fraction(5, 8), name="geo58"),
    }

    @pytest.mark.parametrize("alpha", ALPHAS.values(), ids=ALPHAS)
    def test_depth_64_is_decided_per_length(self, alpha):
        least = computable_least_witness(alpha)
        lengths = []

        def at_length(length):
            lengths.append(length)
            return least.at_length(length)

        def translate(q):
            raise AssertionError(f"translate({q}) called")

        w = dataclasses.replace(least, translate=translate, at_length=at_length)
        for beta in default_gallery():
            lengths.clear()
            report = check_witness(alpha, beta, w, dyadic_grid(64, Fraction(1)))
            assert report.passed, beta.name
            assert report.samples_checked == _count_below(64, beta.limit)
            assert report.samples_checked + report.skipped == 1 << 64
            assert lengths == [0, *range(64, 0, -1)]

    @pytest.mark.parametrize("alpha", ALPHAS.values(), ids=ALPHAS)
    def test_depth_12_matches_the_loop(self, alpha):
        variants = [
            computable_least_witness(alpha),
            # strict, with a constant that fails whole ranges of k per length
            dataclasses.replace(computable_least_witness(alpha), weakened=False, constant=Fraction(1, 64)),
        ]
        for w in variants:
            for beta in default_gallery():
                grid = dyadic_grid(12, beta.limit)
                assert check_witness(alpha, beta, w, grid) == check_witness(alpha, beta, w, list(grid))


class TestAffineGrid:
    """A grid against a strict witness with ``affine`` is decided in closed
    form: its cost does not grow with the grid, and its rows are integer runs
    until ``violations`` is read."""

    @pytest.mark.parametrize(
        "witness",
        [identity_witness(), scaling_witness(Fraction(1, 2), "forward"), affine_witness("a", Fraction(3, 4), Fraction(1, 8), 2)],
        ids=lambda w: w.name,
    )
    def test_depth_64_is_decided_in_closed_form(self, witness):
        def translate(q):
            raise AssertionError(f"translate({q}) called")

        w = dataclasses.replace(witness, translate=translate)
        u, v = witness.affine
        for beta in default_gallery():
            # alpha = phi(beta): alpha - phi(q) = u*(beta - q), below c*(beta - q) as u < c
            alpha = geometric(u * beta.limit + v, name="a")
            for grid in [dyadic_grid(64, Fraction(1)), DyadicGrid(64, 3 << 64)]:
                report = check_witness(alpha, beta, w, grid)
                assert report.passed, beta.name
                assert report.samples_checked == min(_count_below(64, beta.limit), grid.size)
                assert report.samples_checked + report.skipped == grid.size
                assert report.max_ratio_seen is not None

    @pytest.mark.parametrize(
        "alpha, beta, u, v, c",
        [
            # c = u: the gap bound fails everywhere below alpha when
            # c*beta - alpha + v <= 0 (here = 0: equality fails the strict test),
            # and nowhere otherwise
            ("3/4", "3/4", "1", "0", "1"),
            ("3/4", "5/8", "1", "0", "1"),
            ("1/2", "3/4", "1", "0", "1"),
            # c < u: rows from 0 up; c > u: rows up to beta
            ("1", "3/4", "2", "-1/2", "1"),
            ("5/4", "7/8", "1/2", "1/4", "3"),
        ],
    )
    def test_thresholds_match_the_oracle(self, alpha, beta, u, v, c):
        alpha, beta = real(alpha, "a"), real(beta, "b")
        w = affine_witness("a", Fraction(u), Fraction(v), Fraction(c))
        for grid in [DyadicGrid(5, 32), DyadicGrid(5, 48), DyadicGrid(0, 3)]:  # inside [0,1), past beta, past 1
            expect = reference_check_witness(alpha, beta, w, list(grid))
            assert check_witness(alpha, beta, w, grid) == expect

    def test_rows_are_built_only_when_read(self, monkeypatch):
        # alpha = 7/4 against beta = 1 with c = 2 fails the gap bound at every q >= 1/4.
        alpha, beta, w = real("7/4"), real("1"), identity_witness()
        grid = dyadic_grid(12, Fraction(1))
        listed = check_witness(alpha, beta, w, list(grid))
        report = check_witness(alpha, beta, w, grid)
        assert report.rows == [] and (report.depth, report.classes) == (12, ((1 << 10, 1 << 12, 1, REASON_GAP_BOUND, (1, 0, 1 << 12), (2 << 12, 2, 1 << 12)),))
        # A per-length value 2 is not below alpha = 1 at any sample: one class per length.
        high = per_length_witness("high", lambda length: (2, 1), Fraction(1))
        per_length = (check_witness(real("1"), beta, high, grid), check_witness(real("1"), beta, high, list(grid)))
        classes = per_length[0].classes
        assert len(classes) == 13 and {c[3] for c in classes} == {REASON_NOT_BELOW_ALPHA}

        def refuse(*args):
            raise AssertionError("a Violation was built")

        for (report, listed), count in [((report, listed), 3 << 10), (per_length, 1 << 12)]:
            monkeypatch.setattr(reducibility, "Violation", refuse)
            assert not report.passed
            assert report == listed and report != dataclasses.replace(listed, samples_checked=0)
            assert report.to_json_dict() == listed.to_json_dict()
            with pytest.raises(AssertionError, match="a Violation was built"):
                report.violations
            monkeypatch.undo()
            assert report.violations == listed.violations
            assert len(report.violations) == count

    @pytest.mark.parametrize("depth, size", [(4, 16), (4, 12)])
    def test_rows_past_the_cap_are_refused(self, monkeypatch, depth, size):
        # identity fails everywhere below 1 against alpha = 2: c*(1 - q) <= 2 - q.
        # Per length, the witness below is never below alpha = 1.
        monkeypatch.setattr(reducibility, "MAX_ENUMERATION_BITS", 3)
        deciders = [
            (real("2"), identity_witness()),
            (real("1"), per_length_witness("high", lambda length: (2, 1), Fraction(1))),
        ]
        for alpha, w in deciders:
            grid = DyadicGrid(depth, 8)
            assert len(check_witness(alpha, real("1"), w, grid).violations) == 8
            with pytest.raises(PreconditionError, match=rf"^listing {size} violation rows refused \(cap 2\*\*3\)$"):
                check_witness(alpha, real("1"), w, DyadicGrid(depth, size))

    def test_weakened_affine_is_decided_per_sample(self):
        # No constructor builds a weakened affine witness, and the grid
        # decider keeps no closed form for one: it runs the per-sample loop,
        # from its integers, which refuses a grid past its 2**20 cap before
        # the first sample.
        def translate(q):
            raise AssertionError(f"translate({q}) called")

        w = dataclasses.replace(identity_witness(Fraction(2)), weakened=True, translate=translate)
        with pytest.raises(PreconditionError, match=r"^checking 2097152 grid samples one by one refused \(cap 2\*\*20\)$"):
            check_witness(real("1"), real("1"), w, DyadicGrid(21, 1 << 21))
        # alpha = 7/4 fails the gap bound at q >= 1/4 + 2**-|q|: rows of lengths 2 to 10.
        w = dataclasses.replace(identity_witness(Fraction(2)), weakened=True)
        grid = DyadicGrid(10, 1 << 10)
        expect = reference_check_witness(real("7/4"), real("1"), w, list(grid))
        report = check_witness(real("7/4"), real("1"), w, grid)
        assert report.to_json_dict() == expect.to_json_dict() and report.violations == expect.violations
        assert report.classes == () and len(report.rows) == len(expect.rows) > 0

    def test_weakened_affine_raises_at_a_non_dyadic_sample_below_alpha(self):
        # phi(q) = 2q reaches alpha = 1 at q = 1/2.  The oracle skips 5/3,
        # takes 2/3 (not dyadic) as a not_below_alpha row, and raises at
        # 1/3, below alpha and not dyadic, before it reaches -1/4.
        w = dataclasses.replace(scaling_witness(Fraction(2), "forward"), weakened=True)
        samples = [Fraction(1, 4), Fraction(5, 3), Fraction(2, 3), Fraction(1, 3), Fraction(-1, 4)]
        with pytest.raises(DomainError) as got:
            check_witness(real("1"), real("1"), w, samples)
        with pytest.raises(DomainError) as expect:
            reference_check_witness(real("1"), real("1"), w, samples)
        assert str(got.value) == str(expect.value) == "dyadic_length needs a dyadic rational, got 1/3"

    def test_points_split_interleaved_classes_like_the_oracle(self):
        # beta's approximation points 1 - (3/4)**n are dyadic and off a
        # shallow grid, so the schedule's points fall between the rows of
        # classes of several lengths, where the readers merge them in.
        beta = geometric(Fraction(1), Fraction(3, 4), name="b")
        witnesses = [
            # a weakened affine witness has no classes, only rows: it runs the per-sample loop
            (real("7/4"), dataclasses.replace(identity_witness(Fraction(2)), weakened=True)),
            # weakened per length: 5/4 >= (1 - q) + 2**-|q| at every sample but 0
            (real("7/4"), per_length_witness("half", lambda length: (1, 2), Fraction(1), weakened=True)),
            (real("1"), per_length_witness("keyed", length_keyed(Fraction(1, 2), Fraction(3, 4)), Fraction(1, 4))),
            # not below alpha, undefined and gap bound by turns
            (real("5/8"), per_length_witness("table", lambda length: [(5, 8), None, (2, 4)][length % 3], Fraction(1))),
        ]
        cases = [(alpha, w, default_samples(beta, w, depth)) for depth in range(9) for alpha, w in witnesses]
        # identity against alpha = 7/4 fails the gap bound at every q >= 1/4
        identity = identity_witness(Fraction(2))
        cases += [
            (real("7/4"), identity, Schedule(DyadicGrid(1, 2), (Fraction(3, 8),))),  # a point below the first grid row
            (real("7/4"), identity, Schedule(DyadicGrid(2, 3), (Fraction(5, 8), Fraction(7, 8)))),  # points past the last
            (real("7/4"), identity, Schedule(DyadicGrid(2, 4), (Fraction(1, 2),))),  # two equal rows at 1/2
            (real("7/4"), identity, Schedule(DyadicGrid(2, 1), (Fraction(1, 3), Fraction(2, 3)))),  # rows at points only
            (real("1"), identity, Schedule(DyadicGrid(2, 4), (Fraction(1, 3),))),  # no rows
        ]
        inside, samples = 0, []
        for alpha, w, schedule in cases:
            expect = reference_check_witness(alpha, beta, w, sorted(schedule))
            report = check_witness(alpha, beta, w, schedule)
            assert report.to_json_dict() == expect.to_json_dict()
            assert report.violations == expect.violations
            h = 1 << report.depth
            inside += sum(
                sum(lo < Fraction(k * h, d) < hi - step for lo, hi, step, *_ in report.classes) > 1 for k, d, *_ in report.rows
            )
            samples.append([str(v.sample) for v in report.violations])
        assert inside == 128
        assert samples[-5:] == [
            ["3/8", "1/2"], ["1/4", "1/2", "5/8", "7/8"], ["1/4", "1/2", "1/2", "3/4"], ["1/3", "2/3"], []
        ]

    def test_violations_read_back_the_oracle_rows(self):
        # The oracle's Violations are its Fraction loop's as built,
        # never formatted, so they check the one reader's round trip: every
        # row, and every field of it, over grid classes and points alike.
        beta = geometric(Fraction(1), Fraction(3, 4), name="b")
        table = per_length_witness("table", lambda length: [(5, 8), None, (2, 4)][length % 3], Fraction(1))
        cases = [
            (real("7/4"), dataclasses.replace(identity_witness(Fraction(2)), weakened=True), default_samples(beta, identity_witness(), 6)),
            (real("5/8"), table, default_samples(beta, table, 5)),
            (real("7/4"), affine_witness("a", Fraction(3, 2), Fraction(-1, 4), Fraction(1)), Schedule(DyadicGrid(4, 20), (Fraction(1, 3), Fraction(2, 3)))),
        ]
        reasons, bounds = set(), 0
        for alpha, w, schedule in cases:
            expect = reference_violations(alpha, beta, w, sorted(schedule))[2]
            report = check_witness(alpha, beta, w, schedule)
            assert report.violations == expect
            reasons |= {v.reason for v in expect}
            bounds += sum(v.bound is not None for v in expect)
        assert reasons == {REASON_UNDEFINED, REASON_NOT_BELOW_ALPHA, REASON_GAP_BOUND} and bounds > 0

    def test_affine_slope_must_be_positive(self):
        for u in [0, -1]:
            with pytest.raises(ConfigError, match="affine witness slope must be positive"):
                affine_witness("a", Fraction(u), Fraction(0), Fraction(1))

    def test_translate_is_the_affine_form(self):
        w = affine_witness("a", Fraction(3, 2), Fraction(-1, 4), Fraction(1))
        assert w.affine == (Fraction(3, 2), Fraction(-1, 4)) and w.translate(Fraction(1, 2)) == Fraction(1, 2)
        assert identity_witness().affine == (1, 0) and scaling_witness(Fraction(2), "backward").affine == (Fraction(1, 2), 0)


AFFINE_REALS = [
    *default_gallery(),  # geometric, set, staircase and omega
    build_real("set_real", {"set": "odds"}, "odds_real"),
    geometric(Fraction(1), Fraction(3, 4), name="b"),  # dyadic points off shallow grids
]
affine_reals = st.sampled_from(AFFINE_REALS) | st.builds(
    lambda limit: geometric(limit, name="g"), st.fractions(min_value="1/16", max_value=3, max_denominator=24)
)


@st.composite
def strict_affine_witnesses(draw):
    u = draw(st.fractions(min_value="1/8", max_value=3, max_denominator=8))
    v = draw(st.fractions(min_value=-2, max_value=2, max_denominator=8))
    c = draw(st.just(u) | st.fractions(min_value="1/8", max_value=4, max_denominator=8))  # c = u: no gap threshold
    return affine_witness("affine", u, v, c)


def thresholds(alpha, beta, witness):
    """Where phi(q) reaches alpha, where the gap bound turns (c != u), and beta."""
    (u, v), c = witness.affine, witness.constant
    points = [(alpha.limit - v) / u, beta.limit]
    if c != u:
        points.append((c * beta.limit - alpha.limit + v) / (c - u))
    return points


@contextlib.contextmanager
def counted_fractions():
    """Counts every ``Fraction`` built in the block, arithmetic results included."""
    new, count = Fraction.__dict__["__new__"], [0]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        yield count
    finally:
        Fraction.__new__ = new


class TestStrictAffineOffTheGrid:
    """A strict affine witness is decided on any sample list, and on a
    schedule's points, by two thresholds in q, with integer rows: the
    Fraction loop is the oracle, row for row and ratio for ratio."""

    @settings(max_examples=300)
    @given(affine_reals, affine_reals, strict_affine_witnesses(), st.data())
    def test_lists_match_the_fraction_loop(self, alpha, beta, witness, data):
        sample = st.one_of(
            st.builds(Fraction, st.integers(-8, 40), st.sampled_from([1, 2, 4, 8, 16])),  # dyadic, negative too
            st.fractions(min_value=-1, max_value=4, max_denominator=30),  # mostly not dyadic, some at or past beta
        )
        on = thresholds(alpha, beta, witness)
        pool = on + data.draw(st.lists(sample, max_size=10))
        samples = data.draw(st.permutations(on + data.draw(st.lists(st.sampled_from(pool), max_size=30))))
        report = check_witness(alpha, beta, witness, samples)
        assert report.to_json_dict() == reference_check_witness(alpha, beta, witness, samples).to_json_dict()
        assert report.violations == reference_violations(alpha, beta, witness, samples)[2]

    @settings(max_examples=200)
    @given(affine_reals, affine_reals, strict_affine_witnesses(), st.integers(0, 12))
    def test_default_schedules_match_the_fraction_loop(self, alpha, beta, witness, depth):
        schedule = default_samples(beta, witness, depth)
        report = check_witness(alpha, beta, witness, schedule)
        assert report.to_json_dict() == reference_check_witness(alpha, beta, witness, sorted(schedule)).to_json_dict()

    def test_samples_on_each_threshold(self):
        # phi(q) = 3q/2 - 1/4 reaches alpha = 1/2 at q = 1/2; with c = 2 the
        # gap bound 1/2 - phi(q) >= 2*(1 - q) holds from q = 3 on, past beta,
        # and with c = 1 from q = -3/2 down.
        alpha, beta = real("1/2"), real("1")
        samples = [Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3), Fraction(-3, 2) - Fraction(1, 64), Fraction(1)]
        rows = {}
        for c in (2, 1):
            w = affine_witness("a", Fraction(3, 2), Fraction(-1, 4), Fraction(c))
            report = check_witness(alpha, beta, w, samples)
            assert report == reference_check_witness(alpha, beta, w, samples)
            rows[c] = [(v.sample, v.reason) for v in report.violations]
        assert rows[2] == [(Fraction(1, 2), REASON_NOT_BELOW_ALPHA)]
        assert rows[1] == [(Fraction(-97, 64), REASON_GAP_BOUND), (Fraction(-3, 2), REASON_GAP_BOUND), (Fraction(1, 2), REASON_NOT_BELOW_ALPHA)]

    @pytest.mark.parametrize(
        "witness",
        [
            identity_witness(Fraction(1)),
            scaling_witness(Fraction(3, 5), "backward"),
            affine_witness("a", Fraction(3, 2), Fraction(-1, 4), Fraction(1)),
            dataclasses.replace(identity_witness(Fraction(1)), name="weakened", weakened=True),
        ],
        ids=lambda w: w.name,
    )
    def test_never_translates(self, witness):
        def never_called(q):
            raise AssertionError(f"translate({q}) called")

        silent = dataclasses.replace(witness, translate=never_called)
        # alpha = 7/4 against beta = 1: each witness fails at some of the points 1 - (3/4)**n
        alpha, beta = real("7/4", "a"), geometric(Fraction(1), Fraction(3, 4), name="b")
        schedule = default_samples(beta, witness, 4)
        if witness.weakened:  # dyadic samples in [0,1), and some skipped at or past beta
            listed = [Fraction(5, 4), Fraction(1, 8), *schedule, Fraction(0), Fraction(1), Fraction(1, 8), Fraction(255, 256)]
        else:
            listed = [Fraction(5, 3), Fraction(1, 3), *schedule, Fraction(-1, 2), Fraction(1, 3), Fraction(9, 7)]
        for samples, oracle_samples in [(schedule, sorted(schedule)), (listed, listed)]:
            report = check_witness(alpha, beta, silent, samples)
            assert report.rows, "the off-grid samples hold rows"
            assert report == reference_check_witness(alpha, beta, witness, oracle_samples)

    def test_rows_build_no_fraction(self):
        # identity with c = 1 fails the gap bound at every q below beta = 1 against alpha = 7/4
        alpha, beta, w = real("7/4"), geometric(Fraction(1), Fraction(3, 4), name="b"), identity_witness(Fraction(1))
        schedule = default_samples(beta, w, 6)
        listed = [Fraction(k, 97) for k in range(96, -3, -1)]  # descending, not dyadic
        for samples in (schedule, listed):
            with counted_fractions() as built:
                report = check_witness(alpha, beta, w, samples)
            assert built == [1]  # max_ratio_seen
            assert len(report.rows) > 40 and all(type(x) is int for row in report.rows for x in (*row[:2], *row[3:]))
            with counted_fractions() as built:
                doc = report.to_json_dict()
                dump_json(doc)
            assert built == [0]
            assert report.to_json_dict() == reference_check_witness(alpha, beta, w, sorted(samples)).to_json_dict()


class TestReportSerialization:
    def test_json_shape_and_determinism(self):
        w = identity_witness(Fraction(1))
        report = check_witness(real("1/2"), real("1/4"), w, [Fraction(15, 64)])
        text = dump_json(report.to_json_dict())
        doc = json.loads(text)
        assert doc["violations"] == [
            {"q": "15/64", "reason": "gap_bound_failed", "phi_q": "15/64", "bound": "1/64"}
        ]
        assert doc["passed"] is False
        assert text == dump_json(report.to_json_dict())

    def test_integer_values_drop_the_denominator(self):
        report = ViolationReport(
            "w",
            3,
            0,
            [
                (0, 1, REASON_GAP_BOUND, 4, 2, 2, 6),
                (1, 4, REASON_NOT_BELOW_ALPHA, -3, 1, 0, 0),
                (1, 2, REASON_UNDEFINED, 0, 0, 0, 0),
                (3, 4, REASON_GAP_BOUND, 5, 8, 3, 3),
            ],
        )
        assert json.loads(dump_json(report.to_json_dict()))["violations"] == [
            {"q": "0", "reason": REASON_GAP_BOUND, "phi_q": "2", "bound": "1/3"},
            {"q": "1/4", "reason": REASON_NOT_BELOW_ALPHA, "phi_q": "-3", "bound": None},
            {"q": "1/2", "reason": REASON_UNDEFINED, "phi_q": None, "bound": None},
            {"q": "3/4", "reason": REASON_GAP_BOUND, "phi_q": "5/8", "bound": "1"},
        ]

    def test_empty_violations_on_pass(self):
        w = identity_witness()
        x = real("1/2")
        doc = json.loads(dump_json(check_witness(x, x, w, [Fraction(1, 4)]).to_json_dict()))
        assert doc["violations"] == [] and doc["passed"] is True
