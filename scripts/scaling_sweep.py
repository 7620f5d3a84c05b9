#!/usr/bin/env python3
"""Scale-equivalence sweep over the default gallery.

For each gallery real x and factor r, runs both scaling witnesses (r*x below
x and x below r*x) over a dyadic sample schedule and prints the observed
worst-case ratio (alpha - phi(q)) / (beta - q) next to the witness constant.
The observed ratio staying strictly under the constant on every sample is the
desk-scale shadow of the equivalence.
"""

import argparse
from fractions import Fraction

from lce_lab import (
    check_witness,
    default_gallery,
    dyadic_samples,
    scale,
    scaling_witness,
)
from lce_lab.util import parse_rational, rational_str


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument(
        "--factors", default="1/3,1/2,2,5", help="comma-separated positive rationals"
    )
    args = ap.parse_args()
    factors = [parse_rational(tok) for tok in args.factors.split(",")]

    print(f"{'real':<16}{'r':>6}  {'direction':<9}{'constant':>9}{'max ratio seen':>18}  verdict")
    failures = 0
    for x in default_gallery():
        for r in factors:
            for direction in ("forward", "backward"):
                w = scaling_witness(r, direction)
                if direction == "forward":
                    alpha, beta = scale(x, r), x
                else:
                    alpha, beta = x, scale(x, r)
                report = check_witness(
                    alpha, beta, w, dyadic_samples(beta.limit, args.samples)
                )
                verdict = "pass" if report.passed else f"{len(report.to_json_dict()['violations'])} violations"
                failures += not report.passed
                print(
                    f"{x.name:<16}{rational_str(r):>6}  {direction:<9}"
                    f"{rational_str(w.constant):>9}{rational_str(report.max_ratio_seen):>18}  {verdict}"
                )
    print(f"\n{failures} failing configurations")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
