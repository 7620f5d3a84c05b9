"""Command-line surface: gallery building, witness checks, speed traces,
conversions, and prefix-machine tools.

Exit codes: 0 pass/evidence, 1 violation/no-evidence, 2 usage or invariant
error.  Reports are deterministic (sorted keys, exact rationals as num/den
strings) and written atomically; identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import registry
from .errors import ConfigError, LabError
from .machines import check_usch, machine_from_dict, machine_to_dict, measure, uniformize
from .reducibility import check_witness, default_samples, dyadic_samples
from .registry import gallery_from_config
from .speedability import MAX_HORIZON, amplify, check_horizon, check_rho, check_total_speedup, liminf_record, speedup_from_translation, translation_from_speedup
from .util import atomic_write_text, dump_json, parse_rational, rational_str

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2

# The bound on --grid-depth, as on --horizon: a grid of depth d is decided in
# up to d + 1 classes of d-bit integers, as a trace of horizon d holds d + 1
# exact ratios.
MAX_GRID_DEPTH = MAX_HORIZON


def _emit(text: str, out_path):
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out_path):
    _emit(dump_json(doc), out_path)


def _load_machine(path: str):
    with open(path) as fh:
        return machine_from_dict(json.load(fh))


def _witness(args, default_constant: Fraction, alpha):
    """The ``--witness``; ``--c`` sets only the identity witness's constant."""
    witness = registry.parse_witness(args.witness, parse_rational(args.c) if args.c is not None else default_constant, alpha)
    kind = args.witness.partition(":")[0]
    if args.c is not None and kind != "identity":
        raise ConfigError(f"--c sets the identity witness's constant; {kind} fixes its own")
    return witness


def _cmd_gallery(args) -> int:
    horizon = check_horizon(args.horizon)
    with open(args.config) as fh:
        reals = gallery_from_config(json.load(fh))
    entries = []
    for x in reals:
        values = [x.approx(n) for n in range(horizon + 1)]
        for a, b in zip(values, values[1:]):
            if b < a:
                raise LabError(f"{x.name}: approximation decreased inside horizon")
        entries.append(
            {
                "name": x.name,
                "limit": rational_str(x.limit),
                "first_approximations": [rational_str(v) for v in values[: min(8, len(values))]],
                "monotone_through": horizon,
                "attains_at": x.attains_at,
            }
        )
    _emit_json({"entries": entries}, args.out)
    return EXIT_PASS


def _cmd_check_witness(args) -> int:
    alpha = registry.parse_real(args.alpha)
    beta = registry.parse_real(args.beta)
    witness = _witness(args, Fraction(2), alpha)
    if args.samples is not None:
        samples = dyadic_samples(beta.limit, args.samples)
    elif args.grid_depth > MAX_GRID_DEPTH:
        raise ConfigError(f"grid depth must be <= {MAX_GRID_DEPTH}, got {args.grid_depth}")
    else:
        samples = default_samples(beta, witness, args.grid_depth)
    report = check_witness(alpha, beta, witness, samples)
    _emit_json(report.to_json_dict(), args.out)
    return EXIT_PASS if report.passed else EXIT_VIOLATION


def _cmd_speed_trace(args) -> int:
    real = registry.parse_real(args.real)
    speedup = registry.parse_speedup(args.speedup)
    rho = check_rho(parse_rational(args.rho)) if args.rho is not None else None
    trace = liminf_record(real, speedup, args.horizon)
    if args.format == "json":
        _emit_json(trace.to_json_dict(), args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "ratio_num", "ratio_den", "running_min_num", "running_min_den"])
        writer.writerows(trace.csv_rows())
        _emit(buf.getvalue(), args.out)
    if rho is not None:
        return EXIT_PASS if trace.evidence_at(rho) else EXIT_VIOLATION
    return EXIT_PASS


def _cmd_convert(args) -> int:
    real = registry.parse_real(args.real)
    if args.speedup and args.translation:
        raise LabError("give either --speedup or --translation, not both")
    if args.speedup:
        speedup = registry.parse_speedup(args.speedup)
        translation = translation_from_speedup(real, speedup)
        probes = [parse_rational(p) for p in (args.probes.split(",") if args.probes else [])]
        if not probes:
            probes = [real.approx(i) for i in range(check_horizon(args.horizon) + 1)]
        mappings = []
        for q in probes:
            value = translation.evaluate(q)
            mappings.append(
                {"q": rational_str(q), "g_q": rational_str(value) if value is not None else None}
            )
        _emit_json({"direction": "speedup-to-translation", "mappings": mappings}, args.out)
        return EXIT_PASS
    if args.translation:
        horizon = check_horizon(args.horizon)
        translation = registry.parse_translation(args.translation, real)
        if args.amplify > 1:
            translation = amplify(translation, args.amplify)
        speedup = speedup_from_translation(real, translation)
        mappings = [{"i": i, "f_i": speedup.evaluate(i)} for i in range(horizon + 1)]
        _emit_json({"direction": "translation-to-speedup", "mappings": mappings}, args.out)
        return EXIT_PASS
    raise LabError("convert needs --speedup or --translation")


def _cmd_speed_check(args) -> int:
    real = registry.parse_real(args.real)
    translation = registry.parse_translation(args.translation, real)
    if args.amplify > 1:
        translation = amplify(translation, args.amplify)
    report = check_total_speedup(
        real, translation, parse_rational(args.rho), args.horizon
    )
    _emit_json(report.to_json_dict(), args.out)
    if not report.valid:
        return EXIT_ERROR
    return EXIT_PASS if report.evidence else EXIT_VIOLATION


def _cmd_cmm_build(args) -> int:
    source = _load_machine(args.B)
    witness = _witness(args, Fraction(1), registry.parse_real(args.alpha) if args.alpha else None)
    built = uniformize(source, witness, overflow=args.overflow)
    _emit_json(machine_to_dict(built), args.out)
    sys.stderr.write(
        f"measure {rational_str(measure(built))} (source {rational_str(measure(source))})\n"
    )
    return EXIT_PASS


def _cmd_cmm_check(args) -> int:
    a_machine = _load_machine(args.A)
    b_machine = _load_machine(args.B)
    alpha = registry.parse_real(args.alpha)
    beta = registry.parse_real(args.beta)
    report = check_usch(a_machine, b_machine, alpha, beta, args.c, args.n_max)
    _emit_json(report.to_json_dict(), args.out)
    return EXIT_PASS if report.passed else EXIT_VIOLATION


def _amplify_factor(text: str) -> int:
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return k


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lce-lab",
        description="Exact-rational experiments on left-c.e. reals: witnesses, "
        "checkers, speed-up traces, and prefix-machine tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gallery", help="build and validate a gallery config")
    p.add_argument("--config", required=True, help="gallery JSON file")
    p.add_argument("--horizon", type=int, default=32, help="monotonicity check depth")
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("check-witness", help="run the reduction checker on samples")
    p.add_argument("--alpha", required=True, help="real spec for the reduced side")
    p.add_argument("--beta", required=True, help="real spec for the target side")
    p.add_argument("--witness", required=True, help="witness spec")
    p.add_argument("--c", help="witness constant for identity (num/den), default 2")
    p.add_argument("--samples", type=int, help="use exactly this many dyadic samples")
    p.add_argument("--grid-depth", type=int, default=10)
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=_cmd_check_witness)

    p = sub.add_parser("speed-trace", help="trace gap ratios under a speed-up")
    p.add_argument("--real", required=True)
    p.add_argument("--speedup", required=True)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--rho", help="optional evidence threshold in (0,1) (num/den)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=_cmd_speed_trace)

    p = sub.add_parser("speed-check", help="validate a total speed-up candidate")
    p.add_argument("--real", required=True)
    p.add_argument("--translation", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--amplify", type=_amplify_factor, default=1)
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=_cmd_speed_check)

    p = sub.add_parser("convert", help="convert between speed-ups and translations")
    p.add_argument("--real", required=True)
    p.add_argument("--speedup", help="convert this speed-up to a translation")
    p.add_argument("--translation", help="convert this translation to a speed-up")
    p.add_argument("--amplify", type=_amplify_factor, default=1)
    p.add_argument("--probes", help="comma-separated rationals for evaluation")
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("cmm-build", help="uniformize a machine along a witness")
    p.add_argument("--B", required=True, help="source machine JSON")
    p.add_argument("--witness", required=True)
    p.add_argument("--c", help="witness constant for identity (num/den), default 1")
    p.add_argument("--alpha", help="real spec, needed by the least witness")
    p.add_argument("--overflow", choices=("saturate", "error"), default="saturate")
    p.add_argument("--out", help="machine output path (default stdout)")
    p.set_defaults(func=_cmd_cmm_build)

    p = sub.add_parser("cmm-check", help="compare machine complexities lengthwise")
    p.add_argument("--A", required=True, help="transported machine JSON")
    p.add_argument("--B", required=True, help="source machine JSON")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--n-max", type=int, default=32)
    p.add_argument("--out", help="report path (default stdout)")
    p.set_defaults(func=_cmd_cmm_check)

    return parser


_parser = None  # built by the first ``main`` call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except LabError as e:
        sys.stderr.write(f"{e}\n")
        return EXIT_ERROR
    except OSError as e:
        sys.stderr.write(f"i/o failure: {e}\n")
        return EXIT_ERROR
    except json.JSONDecodeError as e:
        sys.stderr.write(f"bad JSON input: {e}\n")
        return EXIT_ERROR
    except ValueError as e:
        # An integer past the interpreter's str-conversion limit: the report
        # cannot be printed, which is not a verdict.
        sys.stderr.write(f"report not written: {e}\n")
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
