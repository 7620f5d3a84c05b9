import json

import pytest

from lce_lab import build_real, gallery_from_config
from lce_lab.registry import parse_real

MACHINE = {
    "name": "B3",
    "entries": [
        {"code": "0", "output": "1"},
        {"code": "10", "output": "10"},
        {"code": "11", "output": "101"},
    ],
}


def same_real(x, y):
    return (
        x.limit == y.limit
        and x.attains_at == y.attains_at
        and all(x.approx(n) == y.approx(n) for n in range(33))
    )


class TestOneConstructorPerKind:
    """A real spec and the gallery entry it maps onto build the same real."""

    @pytest.mark.parametrize(
        "spec, kind, parameters",
        [
            ("geometric:5/8", "geometric", {"limit": "5/8"}),
            ("geometric:1:3/4", "geometric", {"limit": "1", "ratio": "3/4"}),
            ("geometric:3/2:2/3:1/4", "geometric", {"limit": "3/2", "ratio": "2/3", "gap0": "1/4"}),
            ("set:evens", "set_real", {"set": "evens"}),
            ("set:odds", "set_real", {"set": "odds"}),
            ("set:naturals", "set_real", {"set": "naturals"}),
        ],
    )
    def test_spec_matches_gallery_entry(self, spec, kind, parameters):
        (entry,) = gallery_from_config([{"name": "entry", "kind": kind, "parameters": parameters}])
        assert same_real(parse_real(spec), entry)
        assert same_real(parse_real(spec), build_real(kind, parameters, spec))

    def test_omega_spec_matches_gallery_entry(self, tmp_path):
        path = tmp_path / "B3.json"
        path.write_text(json.dumps(MACHINE))
        (entry,) = gallery_from_config([{"name": "o", "kind": "omega_toy", "parameters": {"machine": MACHINE}}])
        x = parse_real(f"omega:{path}")
        assert same_real(x, entry)
        assert x.limit == 1 and x.attains_at == 2
