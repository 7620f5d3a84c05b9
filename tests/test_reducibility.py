import dataclasses
import json
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce_lab import (
    DyadicGrid,
    TranslationWitness,
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
    scale,
    scaling_witness,
    set_real,
)
from lce_lab.dyadic import canonical_length, dyadic_length
from lce_lab.errors import ConfigError, DomainError, LabError
from lce_lab.hyperimmunity import total_witness_from_majorizer
from lce_lab.reducibility import (
    REASON_GAP_BOUND,
    REASON_NOT_BELOW_ALPHA,
    REASON_UNDEFINED,
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

    @given(
        st.fractions(min_value="1/32", max_value=3, max_denominator=40),
        st.one_of(
            st.builds(Fraction, st.integers(0, 255), st.sampled_from([1, 2, 4, 64, 256])),
            st.fractions(min_value=-2, max_value=3, max_denominator=50),
        ),
    )
    def test_translate_is_at_length_of_canonical_length(self, limit, q):
        w = computable_least_witness(real(limit))
        assert w.translate(q) == w.at_length(canonical_length(q))


class TestSampleSchedules:
    def test_grid_is_every_multiple_below(self):
        assert dyadic_grid(3, Fraction(1, 2)) == [Fraction(k, 8) for k in range(4)]

    def test_grid_excludes_exact_bound(self):
        assert Fraction(1, 2) not in dyadic_grid(1, Fraction(1, 2))

    @given(st.integers(min_value=1, max_value=400))
    def test_dyadic_samples_count_and_bound(self, count):
        samples = dyadic_samples(Fraction(2, 3), count)
        assert len(samples) == count
        assert all(q < Fraction(2, 3) for q in samples)
        assert samples == sorted(set(samples))

    def test_dyadic_samples_is_a_grid_prefix(self):
        # 2/3 holds 6 multiples of 1/8: the shallowest grid with 5 samples.
        assert dyadic_samples(Fraction(2, 3), 5) == DyadicGrid(3, 5)
        assert dyadic_samples(Fraction(2, 3), 5) == dyadic_grid(3, Fraction(2, 3))[:5]

    def test_huge_sample_count_is_lazy(self):
        samples = dyadic_samples(Fraction(1), 10**9)
        assert isinstance(samples, DyadicGrid)
        assert len(samples) == 10**9
        assert samples[-1] == Fraction(10**9 - 1, 1 << 30)

    def test_default_samples_include_approximations(self):
        beta = real("1")
        samples = default_samples(beta, approx_count=8, grid_depth=4)
        assert beta.approx(5) in samples
        assert all(q < beta.limit for q in samples)


class TestDyadicGrid:
    GRID = DyadicGrid(3, 6)
    LIST = [Fraction(k, 8) for k in range(6)]

    def test_is_an_immutable_sequence(self):
        assert isinstance(self.GRID, Sequence)
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.GRID.size = 7
        with pytest.raises(TypeError):
            self.GRID[0] = Fraction(0)

    def test_rejects_negative_shape(self):
        with pytest.raises(ConfigError, match="depth"):
            DyadicGrid(-1, 3)
        with pytest.raises(ConfigError, match="size"):
            DyadicGrid(2, -1)

    def test_len_iteration_and_reversal(self):
        assert len(self.GRID) == 6 and len(DyadicGrid(5, 0)) == 0
        assert list(self.GRID) == self.LIST
        assert list(reversed(self.GRID)) == self.LIST[::-1]
        assert all(type(q) is Fraction for q in self.GRID)

    @given(st.integers(-8, 7))
    def test_indexing_like_a_list(self, i):
        if -6 <= i < 6:
            assert self.GRID[i] == self.LIST[i]
        else:
            with pytest.raises(IndexError):
                self.GRID[i]

    @given(st.slices(10))
    def test_slicing_like_a_list(self, s):
        assert self.GRID[s] == self.LIST[s]

    @given(
        st.one_of(
            st.fractions(min_value=-1, max_value=2, max_denominator=32),
            st.integers(-2, 2),
            st.sampled_from([0.25, 0.3, 1.0, float("nan"), "1/8", None]),
        )
    )
    def test_membership_like_a_list(self, value):
        assert (value in self.GRID) == (value in self.LIST)

    def test_equality_against_sequences(self):
        assert self.GRID == self.LIST and self.LIST == self.GRID
        assert self.GRID == tuple(self.LIST)
        assert self.GRID != self.LIST[:-1] and self.GRID != self.LIST[::-1]
        assert self.GRID != DyadicGrid(4, 6) and self.GRID == DyadicGrid(3, 6)
        assert DyadicGrid(2, 1) == DyadicGrid(7, 1) == [Fraction(0)]
        assert DyadicGrid(2, 0) == DyadicGrid(7, 0) == []
        assert self.GRID != {"a": 1} and self.GRID != 3

    def test_index_and_count(self):
        assert self.GRID.index(Fraction(3, 8)) == 3
        assert self.GRID.count(Fraction(1, 4)) == 1 and self.GRID.count(Fraction(7, 8)) == 0


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
    """Witness shapes with and without ``at_length``, strict and weakened."""
    least = computable_least_witness(alpha)
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
                TranslationWitness(
                    "keyed",
                    lambda q: at_length(canonical_length(q)),
                    constant,
                    weakened=weakened,
                    at_length=at_length,
                ),
                TranslationWitness(
                    "table",
                    lambda q: at_table(canonical_length(q)),
                    constant,
                    weakened=weakened,
                    at_length=at_table,
                ),
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
