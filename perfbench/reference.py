"""Independent exact reference for every benchmark operation.

Each function recomputes, from the plan alone and with plain ``Fraction``
arithmetic, what the program must answer: exit code, checked/skipped counts,
every violation, ``max_ratio_seen``, traces, conversions and machine tables.
It never imports lce_lab, so a defect in the package cannot hide itself by
also appearing in the reference.  ``verify`` compares a written report with
the expectation and returns the mismatches; an empty list means correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
SET_LIMITS = {"evens": Fraction(2, 3), "odds": Fraction(1, 3), "naturals": ONE}


def _pow2(n: int) -> Fraction:
    return Fraction(1, 1 << n)


def _is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def _length(q: Fraction) -> int:
    """|q| for a dyadic q in [0, 1): the exponent of its denominator."""
    return q.denominator.bit_length() - 1


def _set_digit(kind: str, i: int) -> bool:
    return {"evens": i % 2 == 0, "odds": i % 2 == 1, "naturals": True}[kind]


def set_partial_sum(kind: str, n: int) -> Fraction:
    return sum((_pow2(i + 1) for i in range(n) if _set_digit(kind, i)), ZERO)


def kraft_mass(doc: dict) -> Fraction:
    return sum((_pow2(len(e["code"])) for e in doc["entries"]), ZERO)


class Real:
    """A real spec as the reference understands it: limit plus approximations."""

    def __init__(self, spec: str, files: dict):
        kind, _, rest = spec.partition(":")
        parts = rest.split(":")
        self.kind = kind
        if kind == "geometric":
            self.limit = Fraction(parts[0])
            self.ratio = Fraction(parts[1]) if len(parts) > 1 else Fraction(1, 2)
            self.gap0 = Fraction(parts[2]) if len(parts) > 2 else self.limit
        elif kind == "set":
            self.set = parts[0]
            self.limit = SET_LIMITS[self.set]
        elif kind == "omega":
            self.machine = files[parts[0]]
            self.limit = kraft_mass(self.machine)
        else:
            raise ValueError(f"reference does not know real spec {spec!r}")

    def approx(self, n: int) -> Fraction:
        if self.kind == "geometric":
            return self.limit - self.gap0 * self.ratio**n
        if self.kind == "set":
            return set_partial_sum(self.set, n)
        return sum(
            (_pow2(len(e["code"])) for e in self.machine["entries"] if max(len(e["code"]), 1) <= n),
            ZERO,
        )


class Witness:
    """phi, constant and slack of a witness spec, from its mathematical definition."""

    def __init__(self, spec: str, constant: Fraction, alpha: Real):
        kind, _, rest = spec.partition(":")
        self.kind = kind
        self.weakened = kind == "least"
        if kind == "identity":
            self.constant = constant
            self.phi = lambda q: q
        elif kind == "scaling":
            r_text, direction = rest.split(":")
            r = Fraction(r_text)
            if direction == "forward":
                self.constant, self.phi = r + 1, lambda q: r * q
            else:
                self.constant, self.phi = 1 / r + 1, lambda q: q / r
        elif kind == "least":
            # A truncation of alpha at |q|+1 bits; alpha - 2**-(|q|+2) when
            # alpha's fractional part is dyadic, so phi stays below alpha.
            a = alpha.limit
            whole = a.numerator // a.denominator
            frac = a - whole
            self.constant = ONE
            if _is_dyadic(frac):
                self.phi = lambda q: a - _pow2(_length(q) + 2)
            else:
                self.phi = lambda q: whole + Fraction(
                    (frac.numerator << (_length(q) + 1)) // frac.denominator, 1 << (_length(q) + 1)
                )
        else:
            raise ValueError(f"reference does not know witness spec {spec!r}")

    def cache_key(self, q: Fraction):
        """What a per-length translate cache could key on; None: no reuse possible."""
        return _length(q) if self.kind == "least" else None


def check(alpha: Real, beta: Real, witness: Witness, samples) -> dict:
    """The plain inequality at every sample, with every violation kept."""
    a, b, c = alpha.limit, beta.limit, witness.constant
    checked = skipped = 0
    violations = []
    best = None
    keys = set()
    for q in samples:
        if not q < b:
            skipped += 1
            continue
        checked += 1
        keys.add(witness.cache_key(q))
        phi = witness.phi(q)
        if not phi < a:
            violations.append((q, "not_below_alpha", phi, None))
            continue
        bound = c * (b - q) + (Fraction(1, q.denominator) if witness.weakened else ZERO)
        r = (a - phi) / (b - q)
        if best is None or r > best:
            best = r
        if not a - phi < bound:
            violations.append((q, "gap_bound_failed", phi, bound))
    keyed = witness.kind == "least"
    return {
        "checked": checked,
        "skipped": skipped,
        "violations": sorted(violations, key=lambda v: v[0]),
        "max_ratio": best,
        "translate_calls": checked,
        "cache_reuse_calls": checked - len(keys) if keyed else 0,
    }


def dyadic_grid(depth: int, below: Fraction) -> list[Fraction]:
    """Every multiple of 2**-depth in [0, below)."""
    grid = []
    k = 0
    while Fraction(k, 1 << depth) < below:
        grid.append(Fraction(k, 1 << depth))
        k += 1
    return grid


def first_dyadics(below: Fraction, count: int) -> list[Fraction]:
    """The first count dyadics below the bound, from the shallowest grid holding them."""
    depth = 0
    while len(dyadic_grid(depth, below)) < count:
        depth += 1
    return dyadic_grid(depth, below)[:count]


def default_samples(beta: Real, depth: int) -> list[Fraction]:
    points = {beta.approx(i) for i in range(65)} | set(dyadic_grid(depth, beta.limit))
    return sorted(q for q in points if q < beta.limit)


def _ceil_log2(x: Fraction) -> int:
    """Smallest t with 2**t >= x."""
    t = 0
    while Fraction(2) ** t < x:
        t += 1
    while Fraction(2) ** (t - 1) >= x:
        t -= 1
    return t


# ---------------------------------------------------------------------------
# Expectations per operation


def _witness_report(result: dict) -> dict:
    return {
        "passed": not result["violations"],
        "samples_checked": result["checked"],
        "skipped": result["skipped"],
        "max_ratio_seen": result["max_ratio"],
        "violations": [
            {"q": q, "reason": reason, "phi_q": phi, "bound": bound}
            for q, reason, phi, bound in result["violations"]
        ],
    }


def _check_op(op: dict, files: dict, samples) -> dict:
    alpha = Real(op["alpha"], files)
    beta = Real(op["beta"], files)
    witness = Witness(op["witness"], Fraction(op["c"] or 2), alpha)
    result = check(alpha, beta, witness, samples)
    report = _witness_report(result)
    return {
        "exit": 0 if report["passed"] else 1,
        "report": report,
        "stats": {
            "samples": result["checked"] + result["skipped"],
            "checked": result["checked"],
            "skipped": result["skipped"],
            "violations": len(result["violations"]),
            "translate_calls": result["translate_calls"],
            "cache_reuse_calls": result["cache_reuse_calls"],
        },
    }


def _speed_trace(op, files):
    x = Real(op["real"], files)
    entries = []
    for n in range(op["horizon"] + 1):
        entries.append({"n": n, "ratio": (x.limit - x.approx(op["k"] * n)) / (x.limit - x.approx(n))})
    running_min = min(e["ratio"] for e in entries)
    return {
        "exit": 0 if running_min <= Fraction(op["rho"]) else 1,
        "report": {"entries": entries, "running_min": running_min},
    }


def _speed_check(op, files):
    x = Real(op["real"], files)
    s, h, limit = Fraction(op["s"]), op["horizon"], x.limit
    base = x.approx(0)
    probes = {base + (limit - base) * (1 - _pow2(k)) for k in range(1, h + 1)}
    probes |= {x.approx(i) for i in range(h + 1)}

    def g(q):
        for _ in range(op["amplify"]):
            q = limit - s * (limit - q)
        return q

    ratios = [(limit - g(q)) / (limit - q) for q in sorted(probes)]
    evidence = min(ratios) <= Fraction(op["rho"])
    return {
        "exit": 0 if evidence else 1,
        "report": {
            "rho": Fraction(op["rho"]),
            "evidence": evidence,
            "valid": True,
            "violations": [],
            "trace": {
                "entries": [{"n": i, "ratio": r} for i, r in enumerate(ratios)],
                "running_min": min(ratios),
            },
        },
    }


def _convert_speedup(op, files):
    x = Real(op["real"], files)
    mappings = []
    for text in op["probes"]:
        q = Fraction(text)
        i = 0
        while x.approx(i) < q:
            i += 1
        mappings.append({"q": q, "g_q": x.approx(op["k"] * i)})
    return {"exit": 0, "report": {"direction": "speedup-to-translation", "mappings": mappings}}


def _convert_translation(op, files):
    x = Real(op["real"], files)
    s, limit = Fraction(op["s"]) ** op["amplify"], x.limit
    mappings = []
    for i in range(op["horizon"] + 1):
        target = limit - s * (limit - x.approx(i + 1))
        n = i + 1
        while x.approx(n) <= target:
            n += 1
        mappings.append({"i": i, "f_i": n})
    return {"exit": 0, "report": {"direction": "translation-to-speedup", "mappings": mappings}}


def padded_table(source: dict, pad: int) -> dict:
    """Transport along the identity witness: code x.w -> sigma + w, saturating."""
    table = {}
    for entry in source["entries"]:
        sigma = entry["output"]
        n = len(sigma)
        for w in range(1 << pad):
            value = int(sigma, 2) + w
            table[entry["code"] + format(w, f"0{pad}b")] = format(value, f"0{n}b") if value < (1 << n) else "1" * n
    return table


def _cmm_build(op, files):
    table = padded_table(files[op["machine"]], op["pad"])
    doc = {
        "name": files[op["machine"]]["name"] + "+pads",
        "entries": [{"code": c, "output": table[c]} for c in sorted(table)],
        "pad_length": op["pad"],
    }
    return {"exit": 0, "report": doc}


def _complexity(table: dict, tau: str):
    lengths = [len(code) for code, out in table.items() if out == tau]
    return min(lengths) if lengths else None


def _cmm_check(op, files):
    source = files[op["machine"]]
    b_table = {e["code"]: e["output"] for e in source["entries"]}
    a_table = padded_table(source, op["pad"])
    rows = []
    for n in range(1, op["n_max"] + 1):
        bits = "".join("1" if _set_digit(op["set"], i) else "0" for i in range(n))
        k_beta = _complexity(b_table, bits)
        if k_beta is None:
            continue
        k_alpha = _complexity(a_table, bits)
        bound = k_beta + op["pad"]
        ok = k_alpha is not None and k_alpha <= bound
        rows.append({"n": n, "alpha_complexity": k_alpha, "beta_complexity": k_beta, "bound": bound, "ok": ok})
    passed = all(r["ok"] for r in rows)
    failures = [r["n"] for r in rows if not r["ok"]]
    return {
        "exit": 0 if passed else 1,
        "report": {"constant": op["pad"], "passed": passed, "first_failure": failures[0] if failures else None, "rows": rows},
    }


def _gallery_real(raw: dict):
    """-> (limit, approximation map, attains_at) of one gallery config entry."""
    p = raw["parameters"]
    if raw["kind"] == "geometric":
        x = Real(f"geometric:{p['limit']}:{p.get('ratio', '1/2')}", {})
        return x.limit, x.approx, None
    if raw["kind"] == "set_real":
        x = Real(f"set:{p['set']}", {})
        return x.limit, x.approx, None
    if raw["kind"] == "staircase":
        head, tail = [Fraction(g) for g in p["gaps"]], Fraction(p["tail_ratio"])

        def staircase(n):
            gap = head[n] if n < len(head) else head[-1] * tail ** (n - len(head) + 1)
            return Fraction(p["limit"]) - gap

        return Fraction(p["limit"]), staircase, None
    stages = p["stages"]

    def halted_mass(n):
        return sum((_pow2(len(c)) for c, s in stages.items() if s <= n), ZERO)

    return kraft_mass(p["machine"]), halted_mass, max(stages.values())


def _gallery(op, files):
    entries = []
    for raw in files[op["config"]]:
        limit, approx, attains = _gallery_real(raw)
        entries.append(
            {
                "name": raw["name"],
                "limit": limit,
                "first_approximations": [approx(n) for n in range(min(8, op["horizon"] + 1))],
                "monotone_through": op["horizon"],
                "attains_at": attains,
            }
        )
    return {"exit": 0, "report": {"entries": entries}}


def _k_bound(op, files):
    a, b = op["majorizer"]
    limit = SET_LIMITS[op["set"]]
    best = min(limit - set_partial_sum(op["set"], a * length + b + 1) for length in range(op["n"] + 1))
    return {"exit": 0, "report": 1 + _ceil_log2(1 / best)}


_CLI = {
    "gallery": _gallery,
    "speed-trace": _speed_trace,
    "speed-check": _speed_check,
    "convert-speedup": _convert_speedup,
    "convert-translation": _convert_translation,
    "cmm-build": _cmm_build,
    "cmm-check": _cmm_check,
}


def expect(op: dict, files: dict) -> dict:
    """Expected exit code and report of one operation: {"exit", "report", "stats"?}."""
    if op["kind"] == "sweep":
        return _check_op(op, files, [Fraction(k, 1 << op["length"]) for k in range(1 << op["length"])])
    if op["kind"] == "k_bound":
        return _k_bound(op, files)
    if op["command"] == "check-witness":
        beta = Real(op["beta"], files)
        if "samples" in op:
            return _check_op(op, files, first_dyadics(beta.limit, op["samples"]))
        return _check_op(op, files, default_samples(beta, op["grid_depth"]))
    return _CLI[op["command"]](op, files)


# ---------------------------------------------------------------------------
# Comparison


def _diff(path: str, got, want, out: list[str], limit: int = 5) -> None:
    if len(out) >= limit:
        return
    if isinstance(want, dict) and isinstance(got, dict):
        for key in want:
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                _diff(f"{path}.{key}", got[key], want[key], out, limit)
        for key in got.keys() - want.keys():
            if key != "witness":
                out.append(f"{path}.{key}: unexpected")
        return
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{path}: {len(got)} items, expected {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(f"{path}[{i}]", g, w, out, limit)
        return
    if isinstance(want, Fraction) and isinstance(got, str):
        # Rationals travel as "num/den" strings; compare values, not spellings.
        try:
            got = Fraction(got)
        except ValueError:
            pass
    if got != want or (type(got) is bool) != (type(want) is bool):
        out.append(f"{path}: got {got!r}, expected {want!r}")


def verify(expected: dict, exit_code: int, output: str) -> list[str]:
    """Mismatches between one operation's result and its expectation."""
    problems = []
    if exit_code != expected["exit"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit']}")
    if isinstance(expected["report"], int):
        if output.strip() != str(expected["report"]):
            problems.append(f"result {output.strip()!r}, expected {expected['report']}")
        return problems
    try:
        doc = json.loads(output)
    except ValueError as e:
        return problems + [f"report is not JSON: {e}"]
    want = expected["report"]
    _diff("report", doc, want, problems)
    return problems
