#!/usr/bin/env python3
"""Transport a finite prefix-free machine along a translation witness and
watch mass and complexity.

Builds a machine coding the prefixes of the evens bit-real (2/3), transports
it along the halving witness that puts the odds bit-real (1/3) below it, and
prints the Kraft masses plus the lengthwise complexity comparison.  Ends with
the mutation control: dropping a single padded code breaks mass equality.
"""

import argparse
from fractions import Fraction

from lce_lab import (
    PrefixMachine,
    TranslationWitness,
    check_usch,
    measure,
    set_real,
    truncate,
    uniformize,
)
from lce_lab.util import rational_str


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=12, help="longest coded prefix")
    args = ap.parse_args()

    alpha = set_real(lambda i: i % 2 == 1, Fraction(1, 3), name="odds_real")
    beta = set_real(lambda i: i % 2 == 0, Fraction(2, 3), name="evens_real")
    witness = TranslationWitness("halve", lambda q: q / 2, Fraction(1))

    table = {
        "1" * (n - 1) + "0": format(truncate(beta.limit, n), f"0{n}b")
        for n in range(1, args.depth + 1)
    }
    source = PrefixMachine("codes-evens", table)
    built = uniformize(source, witness)

    print(f"source machine: {len(source.table)} codes, mass {rational_str(measure(source))}")
    print(
        f"transported:    {len(built.table)} codes, mass {rational_str(measure(built))}, "
        f"pad width {built.pad_length}"
    )

    report = check_usch(built, source, alpha, beta, built.pad_length, args.depth)
    print(f"\ncomplexity comparison (+{built.pad_length} bound): "
          f"{'pass' if report.passed else f'fail at {report.first_failure}'}")
    for row in report.rows[:8]:
        print(f"  n={row.n:<3} K_A={row.alpha_complexity:<4} K_B={row.beta_complexity:<4} bound={row.bound}")
    if len(report.rows) > 8:
        print(f"  ... {len(report.rows) - 8} more rows, all "
              f"{'ok' if report.passed else 'not ok'}")

    damaged_table = dict(built.table)
    damaged_table.pop(sorted(damaged_table)[-1])
    damaged = PrefixMachine("damaged", damaged_table, pad_length=built.pad_length)
    print(
        f"\nmutation control: dropping one pad leaves mass "
        f"{rational_str(measure(damaged))} != {rational_str(measure(source))}"
    )
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
