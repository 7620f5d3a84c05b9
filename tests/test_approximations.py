"""Integer approximations, the one monotone reader and closed-form
amplification, each against the plain ``Fraction`` formula it replaces."""

import json
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lce_lab import (
    DeskReal,
    PrefixMachine,
    approximations,
    check_witness,
    computable_least_witness,
    default_gallery,
    default_samples,
    dyadic_grid,
    geometric,
    identity_witness,
    omega_toy,
    real_from_set,
    scaling_witness,
    set_real,
    staircase,
)
from lce_lab import cli, registry
from lce_lab.cli import main
from lce_lab.dyadic import is_dyadic, kraft_mass
from lce_lab.errors import ConfigError, PreconditionError, SearchExhaustedError
from lce_lab.reals import schedule_from_list
from lce_lab.reducibility import Schedule, Violation, ViolationReport
from lce_lab.speedability import (
    DEFAULT_SEARCH_CAP,
    PROBE_NOT_BELOW_LIMIT,
    TranslationMap,
    affine_toward,
    amplify,
    check_total_speedup,
    default_probes,
    liminf_record,
    linear_speedup,
    ratio,
    translation_from_speedup,
)
from lce_lab.util import dump_json, rational_str

limits = st.fractions(min_value=-4, max_value=8, max_denominator=60)
positives = st.fractions(min_value=Fraction(1, 60), max_value=8, max_denominator=60)
ratios = st.fractions(min_value=Fraction(1, 60), max_value=Fraction(59, 60), max_denominator=60)


def drawn_geometric(limit, ratio, gap0):
    """geometric(limit, ratio, gap0); without gap0 the gap is the limit, so it must be positive."""
    assume(gap0 is not None or limit > 0)
    return geometric(limit, ratio, gap0)


def bumpy():
    """a_0, a_1, a_2 = 0, 1/2, 1/4, then 1 - 2**-n: decreasing at index 2."""
    head = [Fraction(0), Fraction(1, 2), Fraction(1, 4)]
    return DeskReal("bumpy", lambda n: head[n] if n < 3 else 1 - Fraction(1, 1 << n), Fraction(1))


BUMPY_REFUSAL = "bumpy: approximation decreased at index 2 (a_2 < a_1)"


def attaining_omega():
    """Limit 7/8, attained at stage 3; the stages put 1/2 twice in a row."""
    m = PrefixMachine("m", {"0": "1", "10": "0", "110": "11"})
    return omega_toy(m, {"0": 1, "10": 3, "110": 3}, name="omega_attains")


def reals_with_edges():
    return [
        *default_gallery(),
        attaining_omega(),
        geometric(Fraction(1), Fraction(1, 2), Fraction(2), name="starts_at_minus_1"),
        geometric(Fraction(3, 4), Fraction(2, 3), Fraction(5, 4), name="gap0_above_limit"),
        geometric(Fraction(5, 3), Fraction(1, 3), Fraction(1, 7), name="above_one"),
        staircase(Fraction(1), schedule_from_list([Fraction(1, 6), Fraction(1, 8)], Fraction(1, 3)), name="stairs"),
    ]


class TestIntegerApproximations:
    @given(limits, ratios, st.none() | positives)
    def test_geometric_matches_the_fraction_formula(self, limit, ratio, gap0):
        x = drawn_geometric(limit, ratio, gap0)
        g0 = limit if gap0 is None else gap0
        for n in range(40):
            value = x.approx(n)
            assert type(value) is Fraction
            assert value == limit - g0 * ratio**n

    @given(st.lists(positives, min_size=1, max_size=4), ratios)
    def test_schedule_tail_matches_the_fraction_formula(self, head, tail):
        g = schedule_from_list(head, tail)
        for n in range(40):
            expected = head[n] if n < len(head) else head[-1] * tail ** (n - len(head) + 1)
            assert g(n) == expected and type(g(n)) is Fraction

    @given(limits, st.lists(positives, min_size=1, max_size=4, unique=True), ratios)
    def test_staircase_approximations_match(self, limit, head, tail):
        head = sorted(head, reverse=True)
        x = staircase(limit, schedule_from_list(head, tail))
        expected = [limit - (head[n] if n < len(head) else head[-1] * tail ** (n - len(head) + 1)) for n in range(80)]
        assert approximations(x, 80) == expected

    @pytest.mark.parametrize(
        "gaps, message",
        [
            ([1, Fraction(1, 2), 0], "staircase gap G(2) = 0 is not positive"),
            ([1, 0], "staircase gap G(1) = 0 is not positive"),
            ([1, 1], "staircase schedule not strictly decreasing at 1: 1 >= 1"),
            ([Fraction(1, 4), Fraction(1, 2)], "staircase schedule not strictly decreasing at 1: 1/2 >= 1/4"),
        ],
    )
    def test_staircase_names_its_first_bad_gap(self, gaps, message):
        schedule = lambda n: Fraction(gaps[n]) if n < len(gaps) else Fraction(gaps[-1]) - n
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            staircase(Fraction(1), schedule)

    @given(limits, ratios, st.none() | positives, st.integers(min_value=1, max_value=40))
    def test_probes_match_the_fraction_formula(self, limit, ratio, gap0, horizon):
        x = drawn_geometric(limit, ratio, gap0)
        base = x.approx(0)
        expected = [base + (x.limit - base) * (1 - Fraction(1, 1 << k)) for k in range(1, horizon + 1)]
        assert default_probes(x, horizon) == expected

    def test_probes_of_every_kind(self):
        for x in reals_with_edges():
            base = x.approx(0)
            assert default_probes(x, 20) == [base + (x.limit - base) * (1 - Fraction(1, 1 << k)) for k in range(1, 21)], x.name


def reference_default_samples(beta, witness, depth):
    """The default schedule as a filtered set, sorted: the form the one-pass reader replaced."""
    grid = dyadic_grid(depth, min(beta.limit, 1) if witness.weakened else beta.limit)
    points = {beta.approx(i) for i in range(65)}
    off_grid = (p for p in points if p < beta.limit and p not in grid and (not witness.weakened or 0 <= p < 1 and is_dyadic(p)))
    return grid, tuple(sorted(off_grid))


class TestOneReader:
    def test_prefix_of_every_kind(self):
        for x in reals_with_edges():
            assert approximations(x, 70) == [x.approx(n) for n in range(70)], x.name
        assert approximations(geometric(Fraction(1)), 0) == []

    def test_decrease_is_refused_with_its_index(self):
        assert approximations(bumpy(), 2) == [0, Fraction(1, 2)]
        with pytest.raises(PreconditionError, match=f"^{re.escape(BUMPY_REFUSAL)}$"):
            approximations(bumpy(), 10)

    @pytest.mark.parametrize("depth", [0, 3, 10])
    def test_default_samples_match_the_sorted_set(self, depth):
        for beta in reals_with_edges():
            for witness in (identity_witness(), scaling_witness(Fraction(1, 2), "forward"), computable_least_witness(geometric(Fraction(5, 8)))):
                schedule = default_samples(beta, witness, depth)
                assert (schedule.grid, schedule.points) == reference_default_samples(beta, witness, depth), (beta.name, witness.name)

    @settings(max_examples=60)
    @given(limits, ratios, st.none() | positives, st.integers(min_value=0, max_value=12), st.booleans())
    def test_default_samples_match_on_geometric_reals(self, limit, ratio, gap0, depth, weakened):
        beta = drawn_geometric(limit, ratio, gap0)
        witness = computable_least_witness(geometric(Fraction(5, 8))) if weakened else identity_witness()
        schedule = default_samples(beta, witness, depth)
        assert (schedule.grid, schedule.points) == reference_default_samples(beta, witness, depth)

    def test_attained_limit_is_dropped_once(self):
        schedule = default_samples(attaining_omega(), identity_witness(), 0)
        assert schedule.points == (Fraction(1, 2),)

    def test_default_samples_refuse_a_decrease(self):
        with pytest.raises(PreconditionError, match=f"^{re.escape(BUMPY_REFUSAL)}$"):
            default_samples(bumpy(), identity_witness(), 4)


def recording(limit):
    """A map halving the distance to ``limit``, which records every probe it is asked about."""
    seen = []

    def evaluate(q):
        seen.append(q)
        return q + (limit - q) / 2

    return TranslationMap("recording", evaluate), seen


def check_against_sorted_set(x, horizon):
    g, seen = recording(x.limit)
    report = check_total_speedup(x, g, Fraction(1, 2), horizon)
    schedule = sorted(set(default_probes(x, horizon)) | {x.approx(i) for i in range(horizon + 1)})
    assert seen == [q for q in schedule if q < x.limit], x.name
    assert report.violations == [(q, PROBE_NOT_BELOW_LIMIT) for q in schedule if q >= x.limit], x.name
    assert len(report.trace.entries) == len(seen)


class TestTotalSpeedupSchedule:
    @pytest.mark.parametrize("horizon", [1, 5, 24, 64])
    def test_schedule_matches_the_sorted_set(self, horizon):
        for x in reals_with_edges():
            check_against_sorted_set(x, horizon)

    @settings(max_examples=60)
    @given(limits, ratios, st.none() | positives, st.integers(min_value=1, max_value=40))
    def test_schedule_matches_on_geometric_reals(self, limit, ratio, gap0, horizon):
        # gap0 = limit with ratio 1/2 puts every approximation on a probe.
        check_against_sorted_set(drawn_geometric(limit, ratio, gap0), horizon)

    def test_shared_points_are_evaluated_once(self):
        g, seen = recording(Fraction(1))
        check_total_speedup(geometric(Fraction(1)), g, Fraction(1, 2), 10)
        assert len(seen) == len(set(seen)) == 11  # a_0 = 0, then the ten shared points

    def test_decrease_is_refused(self):
        with pytest.raises(PreconditionError, match=f"^{re.escape(BUMPY_REFUSAL)}$"):
            check_total_speedup(bumpy(), affine_toward(Fraction(1), Fraction(1, 2)), Fraction(1, 2), 5)


class TestClosedFormAmplify:
    MAPS = [(Fraction(1), Fraction(1, 2)), (Fraction(3, 4), Fraction(2, 3)), (Fraction(-5, 7), Fraction(9, 10))]

    @staticmethod
    def composed(g, k, q):
        for _ in range(k):
            q = g.evaluate(q)
        return q

    @pytest.mark.parametrize("k", range(1, 7))
    def test_values_are_those_of_k_compositions(self, k):
        for target, s in self.MAPS:
            g = affine_toward(target, s)
            gk = amplify(g, k)
            assert gk.name == (g.name if k == 1 else f"{g.name}^{k}")
            for q in (Fraction(0), Fraction(1, 3), target - 1, Fraction(-2), target + Fraction(1, 5)):
                assert gk.evaluate(q) == self.composed(g, k, q)

    def test_values_at_the_bound(self):
        for target, s in self.MAPS[:2]:
            g = affine_toward(target, s)
            gk = amplify(g, 4096)
            assert gk.affine == (target, s**4096) and gk.total
            for q in (Fraction(0), target - Fraction(1, 3)):
                assert gk.evaluate(q) == self.composed(g, 4096, q)

    def test_affine_map_is_evaluated_once_not_k_times(self):
        g = affine_toward(Fraction(1), Fraction(1, 2))
        calls = []
        counted = replace(g, evaluate=lambda q: calls.append(q) or g.evaluate(q))
        assert amplify(counted, 64).evaluate(Fraction(1, 3)) == 1 - Fraction(2, 3) / 2**64
        assert calls == []

    def test_other_maps_keep_the_loop(self):
        calls = []
        g = TranslationMap("halve", lambda q: calls.append(q) or q / 2, total=False)
        g5 = amplify(g, 5)
        assert g5.affine is None and not g5.total
        assert g5.evaluate(Fraction(1)) == Fraction(1, 32)
        assert len(calls) == 5


def counting_real(seen):
    """a_n = (n + 1)/(n + 2), cheap at any index; records every index asked for."""
    return DeskReal("count", lambda n: seen.append(n) or Fraction(n + 1, n + 2), Fraction(1))


class TestIndexCap:
    def test_at_the_cap_is_traced(self):
        seen = []
        f = linear_speedup(DEFAULT_SEARCH_CAP // 4)
        trace = liminf_record(counting_real(seen), f, 4)
        assert len(trace.entries) == 5 and max(seen) == DEFAULT_SEARCH_CAP

    def test_past_the_cap_is_refused_before_approximating(self):
        seen = []
        f = linear_speedup(DEFAULT_SEARCH_CAP // 4)
        message = f"^linear\\(250000\\): f\\(5\\) = 1250000 is past the index cap {DEFAULT_SEARCH_CAP}$"
        with pytest.raises(SearchExhaustedError, match=message):
            liminf_record(counting_real(seen), f, 10)
        assert max(seen) == DEFAULT_SEARCH_CAP

    @settings(max_examples=40)
    @given(st.integers(1, 3 * DEFAULT_SEARCH_CAP), st.integers(1, 6))
    def test_no_reader_of_f_approximates_past_the_cap(self, factor, n):
        """``ratio``, ``liminf_record`` and ``translation_from_speedup`` share
        one rule: an f(k) past the cap is refused before a_f(k) is approximated."""
        f = linear_speedup(factor)
        first = DEFAULT_SEARCH_CAP // factor + 1  # the least k with f(k) past the cap
        readers = [
            lambda x: ratio(x, f, n),
            lambda x: liminf_record(x, f, n),  # reads f(0), ..., f(n)
            lambda x: translation_from_speedup(x, f).evaluate(Fraction(n + 1, n + 2)),  # least i with a_i >= q is n
        ]
        for read in readers:
            seen = []
            if n >= first:
                k = n if read is not readers[1] else first
                message = f"^linear\\({factor}\\): f\\({k}\\) = {factor * k} is past the index cap {DEFAULT_SEARCH_CAP}$"
                with pytest.raises(SearchExhaustedError, match=message):
                    read(counting_real(seen))
            else:
                read(counting_real(seen))
                assert factor * n in seen
            assert max(seen, default=0) <= DEFAULT_SEARCH_CAP

    @pytest.fixture
    def omega_file(self, tmp_path):
        # limit 3/4, attained at stage 2: a_{f(1)} is the limit however far f(1) reaches
        path = tmp_path / "m.json"
        path.write_text(dump_json({"entries": [{"code": "0", "output": "1"}, {"code": "10", "output": "0"}]}))
        return f"omega:{path}"

    def test_cli_at_the_cap(self, omega_file, tmp_path):
        out = tmp_path / "trace.csv"
        argv = ["speed-trace", "--real", omega_file, "--speedup", f"linear:{DEFAULT_SEARCH_CAP}", "--horizon", "1", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == b"n,ratio_num,ratio_den,running_min_num,running_min_den\r\n0,1,1,1,1\r\n1,0,1,0,1\r\n"

    def test_cli_one_past_the_cap(self, omega_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        argv = ["speed-trace", "--real", omega_file, "--speedup", f"linear:{DEFAULT_SEARCH_CAP + 1}", "--horizon", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "linear(1000001): f(1) = 1000001 is past the index cap 1000000\n"
        assert not out.exists()

    def test_cli_large_factor_exits_before_approximating(self, capsys):
        argv = ["speed-trace", "--real", "geometric:1", "--speedup", "linear:10000000", "--horizon", "10"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "linear(10000000): f(1) = 10000000 is past the index cap 1000000\n")


class TestCliRefusesADecrease:
    def test_gallery(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "gallery.json"
        config.write_text("[]")
        monkeypatch.setattr(cli, "gallery_from_config", lambda doc: [bumpy()])
        out = tmp_path / "report.json"
        assert main(["gallery", "--config", str(config), "--horizon", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == BUMPY_REFUSAL + "\n"
        assert not out.exists()

    def test_convert_without_probes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(registry, "parse_real", lambda spec: bumpy())
        out = tmp_path / "report.json"
        assert main(["convert", "--real", "x", "--speedup", "linear:2", "--horizon", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == BUMPY_REFUSAL + "\n"
        assert not out.exists()


class TestViolationTexts:
    def test_violations_read_back_as_the_texts_parse(self):
        samples = [Fraction(-3, 2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(5, 8)]
        cases = [
            (geometric(Fraction(2)), geometric(Fraction(1)), identity_witness(Fraction(1, 2)), samples),
            (geometric(Fraction(2)), geometric(Fraction(1)), identity_witness(), dyadic_grid(8, Fraction(1))),
            (geometric(Fraction(1)), geometric(Fraction(1)), scaling_witness(Fraction(3, 5), "backward"), dyadic_grid(6, Fraction(1))),
        ]
        for alpha, beta, witness, grid in cases:
            report = check_witness(alpha, beta, witness, grid)
            rows = json.loads(dump_json(report.to_json_dict()))["violations"]
            assert rows, witness.name
            parse = lambda text: None if text is None else Fraction(text)
            expected = [Violation(parse(r["q"]), r["reason"], parse(r["phi_q"]), parse(r["bound"])) for r in rows]
            assert report.violations == expected
            assert all(type(v.sample) is Fraction for v in report.violations)


# A set as its first bits; index i past them reads bit i mod len(bits), so the set is infinite
# when the bits hold a 1.
set_bits = st.lists(st.booleans(), min_size=1, max_size=40).filter(any)


def periodic(bits):
    return lambda i: bits[i % len(bits)]


# Prefix-free codes "0", "10", "110", ... with stages that may tie.
omega_codes = st.dictionaries(st.integers(min_value=0, max_value=9), st.none() | st.integers(min_value=1, max_value=6), max_size=7)


class TestIncrementalPrefixes:
    """Set and omega prefixes read incrementally, against the sums from scratch they replace."""

    @given(set_bits, st.integers(min_value=0, max_value=120))
    def test_set_prefix_matches_real_from_set(self, bits, stop):
        x = set_real(periodic(bits), Fraction(1))
        assert approximations(x, stop) == [real_from_set(periodic(bits), n) for n in range(stop)]

    @given(set_bits, st.lists(st.integers(min_value=0, max_value=300), max_size=12))
    def test_set_values_in_any_order(self, bits, indices):
        # a far index first, then nearer ones: each is a shift of the running numerator
        x = set_real(periodic(bits), Fraction(1))
        for n in indices:
            value = x.approx(n)
            assert value == real_from_set(periodic(bits), n) and type(value) is Fraction

    def test_set_value_at_zero(self):
        x = set_real(periodic([True]), Fraction(1))
        assert x.approx(0) == 0 and type(x.approx(0)) is Fraction
        assert approximations(x, 1) == [0]

    @given(omega_codes)
    def test_omega_prefix_matches_the_kraft_sums(self, drawn):
        codes = {"1" * i + "0": stage for i, stage in drawn.items()}
        m = PrefixMachine("m", {code: "1" for code in codes})
        given_stages = {code: stage for code, stage in codes.items() if stage is not None}
        x = omega_toy(m, given_stages)
        stage_of = {code: given_stages.get(code, len(code)) for code in codes}
        last = max(stage_of.values(), default=0)
        expected = [kraft_mass(len(c) for c, st_ in stage_of.items() if st_ <= s) for s in range(last + 3)]
        assert approximations(x, last + 3) == expected
        assert x.limit == kraft_mass(map(len, codes)) and x.attains_at == last
        assert x.approx(-1) == 0

    def test_tied_stages_sum_together(self):
        assert approximations(attaining_omega(), 5) == [0, Fraction(1, 2), Fraction(1, 2), Fraction(7, 8), Fraction(7, 8)]


class TestSetRealMemory:
    def test_far_index_reads_each_bit_once_and_keeps_no_numerators(self):
        # A memo of every num_n up to 20,000 would hold about 25 MB.
        n = 20_000
        calls = bytearray(n + 1)

        def membership(i):
            calls[i] += 1
            return i % 3 == 1

        x = set_real(membership, Fraction(1, 3))
        tracemalloc.start()
        try:
            value = x.approx(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert calls == bytes([1]) * n + bytes(1)
        assert value == real_from_set(lambda i: i % 3 == 1, n)
        x.approx(n // 2)
        assert calls == bytes([1]) * n + bytes(1)  # an index already passed is a shift
        x.approx(n + 1)
        assert calls == bytes([1]) * (n + 1)


def sorted_columns(report):
    """A report's four text columns by the merge the concatenation replaces:
    every row with its key, one stable sort."""
    rows, h = [], 1 << report.depth
    for lo, hi, step, reason, phi, bound in report.classes:
        for k in range(lo, hi, step):
            phi_q = None if phi is None else Fraction(phi[0] * k + phi[1], phi[2])
            bound_q = None if bound is None else Fraction(bound[0] - bound[1] * k, bound[2])
            rows.append((2 * k + 1, Fraction(k, h), reason, phi_q, bound_q))
    for k, d, reason, phi_num, phi_den, bound_num, bound_den in report.rows:
        phi_q = Fraction(phi_num, phi_den) if phi_den else None
        bound_q = Fraction(bound_num, bound_den) if bound_den else None
        rows.append((2 * max(-(-(k << report.depth) // d), 0), Fraction(k, d), reason, phi_q, bound_q))
    rows.sort(key=lambda row: row[0])
    text = lambda q: None if q is None else rational_str(q)  # noqa: E731
    return tuple(list(map(text, column)) if i != 1 else list(column) for i, column in enumerate(list(zip(*rows))[1:])) if rows else ([], [], [], [])


class TestColumnsConcatenation:
    """``ViolationReport._columns`` concatenates sources whose keys already ascend; the stable sort is the reference."""

    @settings(max_examples=80)
    @given(
        st.integers(min_value=0, max_value=5),
        st.lists(st.fractions(min_value=-1, max_value=3, max_denominator=40), max_size=8),
        st.sampled_from(["7/4", "5/8", "1", "2"]),
        st.sampled_from(["identity", "identity:1/2", "scaling", "least"]),
    )
    def test_default_schedules_with_points_between_rows(self, depth, points, alpha, kind):
        alpha_real = geometric(Fraction(alpha))
        witness = {
            "identity": identity_witness(),
            "identity:1/2": identity_witness(Fraction(1, 2)),
            "scaling": scaling_witness(Fraction(3, 5), "backward"),
            "least": computable_least_witness(geometric(Fraction(2, 3))),
        }[kind]
        grid = dyadic_grid(depth, Fraction(1))
        if witness.weakened:
            points = [p for p in points if 0 <= p < 1 and is_dyadic(p)]
        schedule = Schedule(grid, tuple(sorted({p for p in points if p not in grid})))
        report = check_witness(alpha_real, geometric(Fraction(1)), witness, schedule)
        assert report._columns() == sorted_columns(report)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=1, max_value=4)), min_size=1, max_size=4), st.lists(st.fractions(min_value=0, max_value=1, max_denominator=32), max_size=5))
    def test_hand_made_classes_in_any_order(self, spans, points):
        # classes over the depth-4 grid that may overlap in range and interleave, then sorted points
        classes = tuple((lo, lo + 3 * step, step, "gap_bound_failed", (1, 0, 16), (1, 1, 16)) for lo, step in spans)
        rows = [(p.numerator, p.denominator, "undefined", 0, 0, 0, 0) for p in sorted(points)]
        report = ViolationReport("w", 0, 0, rows, None, 4, classes)
        assert report._columns() == sorted_columns(report)

    def test_points_below_between_and_above_the_grid_rows(self):
        # the default schedule of 1 - (3/4)**n puts points past the depth-2 rows and between them
        alpha, beta = geometric(Fraction(7, 4)), geometric(Fraction(1), Fraction(3, 4))
        report = check_witness(alpha, beta, identity_witness(), default_samples(beta, identity_witness(), 2))
        assert report.classes and report.rows
        assert report._columns() == sorted_columns(report)
