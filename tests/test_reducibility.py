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
    per_length_witness,
    scale,
    scaling_witness,
    set_real,
)
from lce_lab import reducibility
from lce_lab.dyadic import canonical_length, dyadic_length, is_dyadic, truncate
from lce_lab.errors import ConfigError, DomainError, LabError, PreconditionError
from lce_lab.hyperimmunity import total_witness_from_majorizer
from lce_lab.reducibility import (
    MAX_ENUMERATION_BITS,
    REASON_GAP_BOUND,
    REASON_NOT_BELOW_ALPHA,
    REASON_UNDEFINED,
    GridRows,
    Violation,
    ViolationReport,
    _count_below,
)


def real(limit, name="r"):
    return geometric(Fraction(limit), name=name)


def reference_check_witness(alpha, beta, witness, samples):
    """The checker as a plain Fraction loop: the oracle for the integer kernel.

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
    return ViolationReport(witness.name, checked, skipped, violations, best)


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
        assert w.translate(q) == w.at_length(length)

    @given(LIMITS, st.integers(0, 96))
    def test_at_length_is_the_plain_truncation(self, limit, length):
        # Lengths past 64, the cap of canonical_length, are reached through
        # at_length alone.
        w = computable_least_witness(geometric(limit, gap0=Fraction(1)))
        if is_dyadic(limit):
            plain = limit - Fraction(1, 2 ** (length + 2))
        else:
            whole = limit.numerator // limit.denominator
            plain = whole + Fraction(truncate(limit - whole, length + 1), 2 ** (length + 1))
        assert w.at_length(length) == plain < limit

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
    # One value per length, undefined ones included; a drawn q is a dyadic in
    # [0,1), a non-dyadic rational, or a rational outside [0,1).
    VALUES = st.none() | st.fractions(min_value=-1, max_value=3, max_denominator=48)
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
        assert w.translate(q) == lookup(length) == w.at_length(length)

    def test_fields_and_one_call_per_length(self):
        calls = []

        def lookup(length):
            calls.append(length)
            return Fraction(1, 3) if length else None

        w = per_length_witness("keyed", lookup, Fraction(5), weakened=True)
        assert (w.name, w.constant, w.total, w.weakened) == ("keyed", 5, True, True)
        values = [w.translate(Fraction(k, 8)) for k in range(8)] + [w.at_length(3), w.translate(Fraction(1, 3))]
        assert values == [None] + [Fraction(1, 3)] * 9
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
        # least's grid reaches past 1 below beta = 2, so it runs the loop.
        wide = real("2")
        with pytest.raises(PreconditionError, match=r"^checking 2199023255552 grid samples one by one refused"):
            check_witness(alpha, wide, least, default_samples(wide, least, 40))
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
    """A length-keyed translation that is undefined on every third length."""

    def at_length(length):
        return None if length % 3 == 2 else u + v * Fraction(1, 1 << length)

    return at_length


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
    table = draw(st.lists(value, min_size=1, max_size=12))
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
        for witness, depth in [(w, 40), (dataclasses.replace(w, at_length=lambda length: Fraction(0)), 10)]:
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
        assert report.rows == [] and report.grid == GridRows(12, ((1 << 10, 1 << 12, 1, REASON_GAP_BOUND, (1, 0, 1 << 12), (2 << 12, 2, 1 << 12)),))
        # A per-length value 2 is not below alpha = 1 at any sample: one class per length.
        high = per_length_witness("high", lambda length: Fraction(2), Fraction(1))
        per_length = (check_witness(real("1"), beta, high, grid), check_witness(real("1"), beta, high, list(grid)))
        grid_rows = per_length[0].grid
        assert len(grid_rows.classes) == 13 and {c[3] for c in grid_rows.classes} == {REASON_NOT_BELOW_ALPHA}

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
            (real("1"), per_length_witness("high", lambda length: Fraction(2), Fraction(1))),
        ]
        for alpha, w in deciders:
            grid = DyadicGrid(depth, 8)
            assert len(check_witness(alpha, real("1"), w, grid).violations) == 8
            with pytest.raises(PreconditionError, match=rf"^listing {size} violation rows refused \(cap 2\*\*3\)$"):
                check_witness(alpha, real("1"), w, DyadicGrid(depth, size))

    def test_weakened_affine_is_decided_per_length(self):
        # Past the per-sample loop's 2**20 cap: each of the 22 lengths is one
        # class with the slack 2**-l, so nothing is translated.
        def translate(q):
            raise AssertionError(f"translate({q}) called")

        w = dataclasses.replace(identity_witness(Fraction(2)), weakened=True, translate=translate)
        report = check_witness(real("1"), real("1"), w, DyadicGrid(21, 1 << 21))
        assert report.passed and report.samples_checked == 1 << 21 and report.max_ratio_seen == 1
        # alpha = 7/4 fails the gap bound at q >= 1/4 + 2**-|q|: interleaved rows of lengths 2 to 10.
        w = dataclasses.replace(identity_witness(Fraction(2)), weakened=True)
        grid = DyadicGrid(10, 1 << 10)
        expect = reference_check_witness(real("7/4"), real("1"), w, list(grid))
        report = check_witness(real("7/4"), real("1"), w, grid)
        assert report.to_json_dict() == expect.to_json_dict() and report.violations == expect.violations
        assert report.rows == [] and len(report.grid.classes) == 9

    def test_points_split_interleaved_classes_like_the_oracle(self):
        # beta's approximation points 1 - (3/4)**n are dyadic and off a
        # shallow grid, so the schedule's points fall between the rows of
        # classes of several lengths, where the readers merge them in.
        beta = geometric(Fraction(1), Fraction(3, 4), name="b")
        witnesses = [
            (real("7/4"), dataclasses.replace(identity_witness(Fraction(2)), weakened=True)),
            (real("1"), per_length_witness("keyed", length_keyed(Fraction(1, 2), Fraction(3, 4)), Fraction(1, 4))),
            # not below alpha, undefined and gap bound by turns
            (real("5/8"), per_length_witness("table", lambda length: [Fraction(5, 8), None, Fraction(1, 2)][length % 3], Fraction(1))),
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
            h = 1 << report.grid.depth
            inside += sum(
                sum(lo < v.sample * h < hi - step for lo, hi, step, *_ in report.grid.classes) > 1 for v in report.rows
            )
            samples.append([str(v.sample) for v in report.violations])
        assert inside == 125
        assert samples[-5:] == [
            ["3/8", "1/2"], ["1/4", "1/2", "5/8", "7/8"], ["1/4", "1/2", "1/2", "3/4"], ["1/3", "2/3"], []
        ]

    def test_affine_slope_must_be_positive(self):
        for u in [0, -1]:
            with pytest.raises(ConfigError, match="affine witness slope must be positive"):
                affine_witness("a", Fraction(u), Fraction(0), Fraction(1))

    def test_translate_is_the_affine_form(self):
        w = affine_witness("a", Fraction(3, 2), Fraction(-1, 4), Fraction(1))
        assert w.affine == (Fraction(3, 2), Fraction(-1, 4)) and w.translate(Fraction(1, 2)) == Fraction(1, 2)
        assert identity_witness().affine == (1, 0) and scaling_witness(Fraction(2), "backward").affine == (Fraction(1, 2), 0)


class TestReportSerialization:
    def test_json_shape_and_determinism(self):
        w = identity_witness(Fraction(1))
        report = check_witness(real("1/2"), real("1/4"), w, [Fraction(15, 64)])
        doc = report.to_json_dict()
        assert doc["violations"] == [
            {"q": "15/64", "reason": "gap_bound_failed", "phi_q": "15/64", "bound": "1/64"}
        ]
        assert doc["passed"] is False
        assert json.dumps(doc, sort_keys=True) == json.dumps(report.to_json_dict(), sort_keys=True)

    def test_integer_values_drop_the_denominator(self):
        report = ViolationReport(
            "w",
            3,
            0,
            [
                Violation(Fraction(0), REASON_GAP_BOUND, Fraction(2), Fraction(1, 3)),
                Violation(Fraction(1, 4), REASON_NOT_BELOW_ALPHA, Fraction(-3), None),
                Violation(Fraction(1, 2), REASON_UNDEFINED, None, None),
                Violation(Fraction(3, 4), REASON_GAP_BOUND, Fraction(5, 8), Fraction(1)),
            ],
        )
        assert report.to_json_dict()["violations"] == [
            {"q": "0", "reason": REASON_GAP_BOUND, "phi_q": "2", "bound": "1/3"},
            {"q": "1/4", "reason": REASON_NOT_BELOW_ALPHA, "phi_q": "-3", "bound": None},
            {"q": "1/2", "reason": REASON_UNDEFINED, "phi_q": None, "bound": None},
            {"q": "3/4", "reason": REASON_GAP_BOUND, "phi_q": "5/8", "bound": "1"},
        ]

    def test_empty_violations_on_pass(self):
        w = identity_witness()
        x = real("1/2")
        doc = check_witness(x, x, w, [Fraction(1, 4)]).to_json_dict()
        assert doc["violations"] == [] and doc["passed"] is True
