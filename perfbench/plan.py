"""Seeded input plans for the three benchmark workloads.

A plan is plain JSON-shaped data: the input files to write (machine tables,
gallery configs) and the ordered list of operations that make one round of
the workload.  The seed picks the properties that change the program's
behaviour; the amount of work per round stays fixed, so runs with different
seeds stay comparable.  Nothing here imports lce_lab: the reference check in
``reference.py`` reads the same plan and must stay independent of the package.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("sweep-pass", "sweep-violations", "session")

# Every dyadic of canonical length <= L in [0, 1): criterion 7's shape at a
# size that gives each run more than a hundred operations.
SWEEP_PASS_LENGTH = 14
SWEEP_VIOLATIONS_LENGTH = 13
# check-witness --grid-depth in the session (the CLI default).
SESSION_GRID_DEPTH = 10
SESSION_HORIZON = 24
K_BOUND_LENGTHS = (14,)
# (code width, witness constant, pad width) of the session's wide machines.
WIDE_SHAPES = ((10, 1, 1), (9, 3, 2), (8, 7, 3))
# Tail percentile per workload and the op count that leaves ten samples beyond it.
TAIL_PERCENTILE = {"sweep-pass": 90, "sweep-violations": 90, "session": 95}


def rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def min_ops(workload: str) -> int:
    return round(10 * 100 / (100 - TAIL_PERCENTILE[workload]))


def _prefix_free_codes(rng: random.Random, leaves: int) -> list[str]:
    """A complete prefix-free code grown by splitting random leaves."""
    codes = [""]
    while len(codes) < leaves:
        leaf = codes.pop(rng.randrange(len(codes)))
        codes += [leaf + "0", leaf + "1"]
    return sorted(codes)


def _random_bits(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(low, high)))


def _machine_doc(name: str, table: dict[str, str]) -> dict:
    return {"name": name, "entries": [{"code": c, "output": table[c]} for c in sorted(table)]}


def set_bits(kind: str, n: int) -> str:
    """First n digits of 0.A(0)A(1)... for the periodic builtin sets."""
    if kind == "evens":
        return "".join("1" if i % 2 == 0 else "0" for i in range(n))
    if kind == "odds":
        return "".join("1" if i % 2 == 1 else "0" for i in range(n))
    return "1" * n


def _omega_beta(rng: random.Random) -> tuple[dict, str]:
    """A machine whose halting mass is a dyadic in [7/8, 1]: the omega beta."""
    codes = _prefix_free_codes(rng, rng.randint(6, 10))
    # Drop long codes while the mass stays at least 7/8; a narrow band keeps
    # the skip share, and so the work per round, nearly seed-independent.
    mass = Fraction(1)
    kept = []
    for code in sorted(codes, key=lambda c: (-len(c), c)):
        weight = Fraction(1, 1 << len(code))
        if rng.random() < 0.5 and mass - weight >= Fraction(7, 8):
            mass -= weight
            continue
        kept.append(code)
    table = {c: _random_bits(rng, 1, 6) for c in kept}
    return _machine_doc("omega-beta", table), "inputs/omega-beta.json"


def _sweep_pass(rng: random.Random) -> dict:
    m = rng.choice((3, 4, 5))
    dyadic_alpha = Fraction(rng.randrange((1 << (m - 1)) + 1, 1 << m, 2), 1 << m)
    den = rng.choice((3, 5, 7, 9, 11))
    # An odd denominator keeps the limit non-dyadic after reduction.
    non_dyadic_alpha = Fraction(rng.randrange(den // 2 + 1, den), den)
    # Both set reals every time: their costs differ, and a seed must not
    # change the amount of work in a round.
    alphas = [f"geometric:{rat(dyadic_alpha)}", f"geometric:{rat(non_dyadic_alpha)}", "set:evens", "set:odds"]
    beta_limit = Fraction(rng.choice((8, 10, 12, 14)), 1) / rng.choice((9, 11, 13, 15))
    while not Fraction(7, 8) <= beta_limit < 1:
        beta_limit = Fraction(rng.choice((8, 10, 12, 14)), 1) / rng.choice((9, 11, 13, 15))
    machine, machine_path = _omega_beta(rng)
    betas = [
        "geometric:1",
        f"geometric:{rat(beta_limit)}",
        "set:evens",
        "set:odds",
        f"omega:{machine_path}",
    ]
    ops = []
    for alpha in alphas:
        for beta in betas:
            ops.append(
                {
                    "kind": "sweep",
                    "alpha": alpha,
                    "beta": beta,
                    "witness": "least",
                    "c": "1",
                    "length": SWEEP_PASS_LENGTH,
                }
            )
    return {"files": {machine_path: machine}, "ops": ops}


def _sweep_violations(rng: random.Random) -> dict:
    # Complementary pairs keep the violation share of a round at one half
    # whatever the seed picks.
    # Shares near one half keep the largest single report, and so peak memory,
    # nearly seed-independent.  A dyadic t puts q = t on the grid, where the
    # gap bound holds with equality and the strict check must still fail.
    r = rng.choice((Fraction(1, 2), Fraction(3, 5), Fraction(5, 8), Fraction(4, 7), Fraction(5, 9)))
    t = rng.choice((Fraction(1, 2), Fraction(5, 8), Fraction(9, 16), Fraction(17, 32), Fraction(7, 16)))
    ops = []
    for s in (r, 1 - r):
        ops.append(
            {
                "kind": "sweep",
                "alpha": "geometric:1",
                "beta": "geometric:1",
                "witness": f"scaling:{rat(s)}:backward",
                "c": "1",
                "length": SWEEP_VIOLATIONS_LENGTH,
            }
        )
    for s in (t, 1 - t):
        # identity with c = 2 fails the gap bound exactly at q >= s.
        ops.append(
            {
                "kind": "sweep",
                "alpha": f"geometric:{rat(2 - s)}",
                "beta": "geometric:1",
                "witness": "identity",
                "c": "2",
                "length": SWEEP_VIOLATIONS_LENGTH,
            }
        )
    return {"files": {}, "ops": ops}


def _cli(command: str, argv: list[str], out: str = "", **params) -> dict:
    """A CLI op writing {out}/<name>.json in the round's output directory;
    params are what the reference needs to recompute the answer."""
    sub = "convert" if command.startswith("convert") else command
    return {
        "kind": "cli",
        "command": command,
        "argv": [sub, *argv, "--out", f"{{out}}/{out or command}.json"],
        **params,
    }


def _session(rng: random.Random) -> dict:
    files: dict = {}
    limit = rng.choice((Fraction(1), Fraction(3, 4), Fraction(5, 8), Fraction(2, 3), Fraction(4, 5)))
    ratio = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
    real = f"geometric:{rat(limit)}:{rat(ratio)}"
    slow_real = f"geometric:{rat(limit)}:{rat(rng.choice((Fraction(5, 6), Fraction(7, 8), Fraction(9, 10))))}"
    k = rng.choice((2, 3))
    s = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
    amp = rng.choice((2, 3))
    rho = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(1, 16)))
    set_kind = rng.choice(("evens", "odds"))

    # Gallery: one real of each kind.
    omega_codes = _prefix_free_codes(rng, 4)
    gallery = [
        {"name": "geo", "kind": "geometric", "parameters": {"limit": rat(limit), "ratio": rat(ratio)}},
        {"name": "bits", "kind": "set_real", "parameters": {"set": set_kind}},
        {
            "name": "stairs",
            "kind": "staircase",
            "parameters": {
                "limit": "1",
                "gaps": [rat(Fraction(1, d)) for d in sorted(rng.sample(range(2, 12), 3))],
                "tail_ratio": rat(rng.choice((Fraction(1, 2), Fraction(1, 3)))),
            },
        },
        {
            "name": "omega",
            "kind": "omega_toy",
            "parameters": {
                "machine": _machine_doc("toy", {c: _random_bits(rng, 1, 4) for c in omega_codes}),
                "stages": {c: i + 1 for i, c in enumerate(omega_codes)},
            },
        },
    ]
    files["inputs/gallery.json"] = gallery

    # Wide machines: complete codes of width w; the witness constant sets the
    # pad width, and w + pad is fixed so each emits 2**11 codes.  Every round
    # builds all three shapes: the cost per source code is larger than per
    # emitted code, so one seeded shape per round would make the session's
    # work depend on the seed.  The seed picks the outputs.
    n_max = SESSION_HORIZON
    wide = []
    for width, constant, pad in WIDE_SHAPES:
        table = {}
        for i, code in enumerate(format(j, f"0{width}b") for j in range(1 << width)):
            table[code] = set_bits(set_kind, i + 1) if i < n_max else _random_bits(rng, 4, 24)
        path = f"inputs/wide-{width}.json"
        files[path] = _machine_doc(f"wide-{width}", table)
        wide.append((path, width, constant, pad))

    # Two check-witness verdicts: one pass, one criterion-8 style failure.
    # The betas have fixed limits so the sample count is the same for every seed.
    check_beta = f"geometric:1:{rat(ratio)}"
    if rng.random() < 0.5:
        passing = {"alpha": check_beta, "beta": check_beta, "witness": "identity", "c": "2"}
    else:
        r = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
        passing = {
            "alpha": f"geometric:{rat(r)}:{rat(ratio)}",
            "beta": check_beta,
            "witness": f"scaling:{rat(r)}:forward",
            "c": None,
        }
    a_fail = rng.choice((Fraction(1, 2), Fraction(3, 4), Fraction(1)))
    failing = {"alpha": f"geometric:{rat(a_fail)}", "beta": "geometric:1/4", "witness": "identity", "c": "1"}

    probes = sorted({limit * Fraction(rng.randint(1, 63), 64) for _ in range(6)})
    horizon = str(SESSION_HORIZON)
    ops = [
        _cli("gallery", ["--config", "inputs/gallery.json", "--horizon", "32"], config="inputs/gallery.json", horizon=32)
    ]
    for name, case in (("check-pass", passing), ("check-fail", failing)):
        argv = ["--alpha", case["alpha"], "--beta", case["beta"], "--witness", case["witness"]]
        if case["c"] is not None:
            argv += ["--c", case["c"]]
        argv += ["--grid-depth", str(SESSION_GRID_DEPTH)]
        ops.append(_cli("check-witness", argv, out=name, **case, grid_depth=SESSION_GRID_DEPTH))
    ops += [
        _cli(
            "speed-trace",
            ["--real", real, "--speedup", f"linear:{k}", "--horizon", horizon, "--rho", rat(rho), "--format", "json"],
            real=real, k=k, horizon=SESSION_HORIZON, rho=rat(rho),
        ),
        _cli(
            "speed-check",
            ["--real", real, "--translation", f"affine:{rat(s)}", "--rho", rat(rho), "--horizon", horizon,
             "--amplify", str(amp)],
            real=real, s=rat(s), amplify=amp, horizon=SESSION_HORIZON, rho=rat(rho),
        ),
        _cli(
            "convert-speedup",
            ["--real", real, "--speedup", f"linear:{k}", "--probes", ",".join(rat(p) for p in probes)],
            real=real, k=k, probes=[rat(p) for p in probes],
        ),
        _cli(
            "convert-translation",
            ["--real", slow_real, "--translation", f"affine:{rat(s)}", "--amplify", str(amp), "--horizon", horizon],
            real=slow_real, s=rat(s), amplify=amp, horizon=SESSION_HORIZON,
        ),
    ]
    for path, width, constant, pad in wide:
        ops += [
            _cli(
                "cmm-build",
                ["--B", path, "--witness", "identity", "--c", str(constant)],
                out=f"cmm-build-{width}", machine=path, pad=pad,
            ),
            _cli(
                "cmm-check",
                ["--A", f"{{out}}/cmm-build-{width}.json", "--B", path, "--alpha", f"set:{set_kind}",
                 "--beta", f"set:{set_kind}", "--c", str(pad), "--n-max", str(n_max)],
                out=f"cmm-check-{width}", machine=path, pad=pad, set=set_kind, n_max=n_max,
            ),
        ]
    a, b = rng.choice(((1, 0), (1, 2), (2, 0), (2, 1)))
    for n in K_BOUND_LENGTHS:
        ops.append({"kind": "k_bound", "set": set_kind, "majorizer": [a, b], "n": n})
    return {"files": files, "ops": ops}


def make_plan(workload: str, seed: int) -> dict:
    """The inputs of one workload for one seed; same seed, same plan."""
    by_workload = {"sweep-pass": _sweep_pass, "sweep-violations": _sweep_violations, "session": _session}
    plan = by_workload[workload](random.Random(f"{workload}/{seed}"))
    for i, op in enumerate(plan["ops"]):
        op["id"] = f"{i:02d}-{op.get('command', op['kind'])}"
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
