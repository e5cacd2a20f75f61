#!/usr/bin/env python3
"""Cone volumes behind the SL_2 window law: analytic vs rejection sampling.

Sweeps the window edge x and compares the closed-form cone volume
2 eps^2 ln(x) against a rejection Monte Carlo estimate that only uses the
membership inequalities. The final column divides by ln(x): a constant
column is the volume-side statement of the logarithmic significand law.

Usage:
    python scripts/cone_volume_scan.py --eps 0.1 --trials 2000000
"""

import argparse
import math
import sys

from haar_digits.lie import ConeProblem, sl2_cone_volume, sl2_cone_volume_mc
from haar_digits.rng import RngStream


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", default="2,3,5,10,100")
    parser.add_argument("--eps", type=float, default=0.1)
    parser.add_argument("--trials", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    try:
        edges = [float(x) for x in args.edges.split(",") if x]
    except ValueError:
        parser.error(f"--edges expects comma-separated numbers, got {args.edges!r}")
    # The law divides by ln(x), and the cone [1, x) is empty for x <= 1.
    if not edges or any(not x > 1.0 for x in edges):
        parser.error(f"--edges must all be > 1, got {args.edges!r}")
    root = RngStream(args.seed)
    print(f"# eps={args.eps}, {args.trials} trials per edge, seed={args.seed}")
    print(
        f"{'x':>8}  {'analytic':>12}  {'mc estimate':>12}  {'mc stderr':>10}"
        f"  {'sigma gap':>9}  {'vol/ln(x)':>10}"
    )
    worst = 0.0
    for idx, x in enumerate(edges):
        problem = ConeProblem(x, args.eps)
        analytic = sl2_cone_volume(problem)
        mc = sl2_cone_volume_mc(problem, root.substream(idx), args.trials)
        sigmas = abs(mc.estimate - analytic) / mc.stderr if mc.stderr > 0 else 0.0
        worst = max(worst, sigmas)
        print(
            f"{x:8.1f}  {analytic:12.6f}  {mc.estimate:12.6f}  {mc.stderr:10.6f}"
            f"  {sigmas:9.2f}  {analytic / math.log(x):10.6f}"
        )
    print(f"# worst deviation: {worst:.2f} standard errors")
    return 0 if worst < 5.0 else 1


if __name__ == "__main__":
    sys.exit(main())
