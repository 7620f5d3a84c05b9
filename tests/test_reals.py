from fractions import Fraction

import pytest

from lce_lab import (
    DegenerateApproximationError,
    PrefixMachine,
    approx_at,
    default_gallery,
    gallery_from_config,
    gap,
    geometric,
    omega_toy,
    periodic_limit,
    scale,
    set_real,
    staircase,
)
from lce_lab.errors import ConfigError
from lce_lab.reals import alternating_gaps


def evens(i):
    return i % 2 == 0


class TestApproxAndGap:
    def test_geometric_closed_form(self):
        x = geometric(Fraction(1))
        assert approx_at(x, 3) == Fraction(7, 8)

    def test_set_real_partial_sum(self):
        x = set_real(evens, Fraction(2, 3))
        assert approx_at(x, 4) == Fraction(5, 8)

    def test_omega_nothing_halted_at_stage_zero(self):
        m = PrefixMachine("m", {"0": "1", "10": "10", "11": "101"})
        x = omega_toy(m, {"0": 1, "10": 2, "11": 3})
        assert approx_at(x, 0) == 0

    def test_gap_geometric(self):
        assert gap(geometric(Fraction(1)), 5) == Fraction(1, 32)

    def test_gap_set_real(self):
        assert gap(set_real(evens, Fraction(2, 3)), 2) == Fraction(1, 6)

    def test_gap_staircase_by_construction(self):
        x = staircase(Fraction(1), alternating_gaps)
        for n in range(20):
            assert gap(x, n) == alternating_gaps(n)

    def test_gap_raises_once_limit_attained(self):
        m = PrefixMachine("m", {"0": "1", "1": "0"})
        x = omega_toy(m, {"0": 1, "1": 2})
        assert gap(x, 1) == Fraction(1, 2)
        with pytest.raises(DegenerateApproximationError):
            gap(x, 2)


class TestGalleryReals:
    def test_monotone_and_sound_through_thousand(self):
        for x in default_gallery():
            top = x.attains_at if x.attains_at is not None else 1000
            prev = None
            for n in range(min(top, 1000) + 1):
                a = approx_at(x, n)
                if prev is not None:
                    assert prev <= a, (x.name, n)
                if x.attains_at is None or n < x.attains_at:
                    assert a < x.limit, (x.name, n)
                prev = a

    def test_omega_final_stage_equals_kraft_mass(self):
        m = PrefixMachine("m", {"0": "1", "10": "10", "11": "101"})
        x = omega_toy(m, {"0": 1, "10": 2, "11": 3})
        assert x.limit == 1
        assert approx_at(x, x.attains_at) == x.limit
        stages = [approx_at(x, s) for s in range(x.attains_at + 1)]
        assert stages == sorted(stages)

    def test_double_exponential_staircase(self):
        x = staircase(
            Fraction(1), lambda n: Fraction(1, 1 << (1 << n)), validate_through=8
        )
        for n in range(8):
            assert gap(x, n) == Fraction(1, 1 << (1 << n))

    def test_scale(self):
        x = scale(geometric(Fraction(1)), Fraction(5))
        assert x.limit == 5
        assert approx_at(x, 3) == Fraction(35, 8)

    def test_periodic_limits(self):
        assert periodic_limit("", "10") == Fraction(2, 3)
        assert periodic_limit("", "01") == Fraction(1, 3)
        assert periodic_limit("", "1") == 1
        assert periodic_limit("101", "01") == Fraction(5, 8) + Fraction(1, 8) / 3

    @pytest.mark.parametrize("prefix, period", [("", "2"), ("2", "1"), ("0_1", "1"), ("", "0_1"), ("", ""), (1, "1")])
    def test_periodic_limit_rejects_non_binary_patterns(self, prefix, period):
        with pytest.raises(ConfigError, match="bad periodic pattern"):
            periodic_limit(prefix, period)


class TestGalleryConfig:
    def test_build_from_entries(self):
        entries = [
            {"name": "g", "kind": "geometric", "parameters": {"limit": "1", "ratio": "1/2"}},
            {"name": "e", "kind": "set_real", "parameters": {"set": "evens"}},
            {"name": "s", "kind": "staircase", "parameters": {"limit": "1", "gaps": ["1", "1/3"], "tail_ratio": "1/2"}},
            {
                "name": "o",
                "kind": "omega_toy",
                "parameters": {
                    "machine": {"entries": [{"code": "0", "output": "1"}, {"code": "10", "output": "10"}, {"code": "11", "output": "101"}]},
                    "stages": {"0": 1, "10": 2, "11": 3},
                },
            },
        ]
        reals = gallery_from_config(entries)
        assert [x.limit for x in reals] == [1, Fraction(2, 3), 1, 1]
        assert approx_at(reals[0], 4) == Fraction(15, 16)

    def test_error_carries_entry_index(self):
        entries = [
            {"name": "ok", "kind": "geometric", "parameters": {"limit": "1"}},
            {"name": "bad", "kind": "geometric", "parameters": {"limit": "1", "ratio": "2"}},
        ]
        with pytest.raises(ConfigError, match="entry 1"):
            gallery_from_config(entries)

    def test_rejects_aperiodic_set_real(self):
        with pytest.raises(ConfigError, match="entry 0"):
            gallery_from_config([{"name": "sq", "kind": "set_real", "parameters": {"set": "squares"}}])

    def test_rejects_decreasing_staircase(self):
        with pytest.raises(ConfigError):
            gallery_from_config(
                [{"name": "s", "kind": "staircase", "parameters": {"limit": "1", "gaps": ["1/4", "1/2"]}}]
            )

    @pytest.mark.parametrize("parameters", [{}, {"set": {}}])
    def test_set_real_needs_its_set(self, parameters):
        with pytest.raises(ConfigError, match=r"entry 0 \('e'\): set_real supports .*; got None"):
            gallery_from_config([{"name": "e", "kind": "set_real", "parameters": parameters}])

    def test_entry_shapes_are_checked_before_any_build(self):
        entries = [
            {"name": "bad", "kind": "geometric", "parameters": {"limit": "1", "ratio": "2"}},
            {"name": "shapeless"},
        ]
        with pytest.raises(ConfigError, match="^gallery entry 1: need an object with a kind$"):
            gallery_from_config(entries)

    def test_config_document_round(self):
        doc = [
            {"name": "g58", "kind": "geometric", "parameters": {"limit": {"num": "5", "den": "8"}}},
            {"name": "odds", "kind": "set_real", "parameters": {"set": "odds"}},
            {"name": "ev", "kind": "set_real", "parameters": {"set": {"kind": "evens"}}},
        ]
        reals = gallery_from_config(doc)
        assert reals[0].limit == Fraction(5, 8)
        assert reals[1].limit == Fraction(1, 3)
        assert reals[2].limit == Fraction(2, 3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown gallery kind"):
            gallery_from_config([{"name": "x", "kind": "zeta"}])
