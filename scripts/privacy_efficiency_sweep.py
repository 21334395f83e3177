#!/usr/bin/env python3
"""Sweep the device truth-probability and tabulate privacy against efficiency.

For each p on a grid the script reports, for the survey's population: the
attained worst-pair posterior shift (alpha), the guaranteed bound over *all*
populations, the posterior floor on the non-stigmatizing class (beta, when the
support has one), and the two variance figures at the requested sample size.
Designed operating points for a few stipulated privacy levels are appended so
the trade-off can be read off directly: every row above the designed p is
admissible for that level, and variance only improves as p grows.
"""

import argparse
import sys

from rrkit import (
    Device,
    ValidationError,
    design,
    estimation,
    load_survey,
    privacy,
)


def sweep_rows(survey, n, steps):
    support, population = survey.support, survey.population
    nonstig = support.nonstigmatizing_indices
    rows = []
    for i in range(1, steps):
        p = i / steps
        device = Device(p=p, m=support.m)
        alpha = privacy.alpha_measure(device, population).alpha
        bound = privacy.guaranteed_alpha_bound(device)
        beta = (
            privacy.beta_measure(device, population, nonstig).beta if nonstig else None
        )
        var_mu = estimation.variance_mean_theoretical(device, support, population, n)
        var_pi = estimation.total_variance_proportions_theoretical(device, population, n)
        rows.append((p, alpha, bound, beta, var_mu, var_pi))
    return rows


def designed_points(survey):
    support = survey.support
    points = []
    for xi in (0.05, 0.10, 0.20):
        p0 = design.p0_all_stigmatizing(support.m, xi)
        points.append((f"alpha <= {xi:.2f}", p0))
    if survey.policy is not None:
        _, cert = design.design_device(survey.policy, support)
        points.append((f"survey policy ({cert.mode.value})", cert.p0))
    return points


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--survey", default="surveys/all_stigmatizing_m4.json", help="survey definition file"
    )
    parser.add_argument("--n", type=int, default=500, help="sample size for the variance columns")
    parser.add_argument("--steps", type=int, default=20, help="p-grid resolution (1/steps)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be at least 1")
    if args.steps < 2:
        parser.error("--steps must be at least 2: the grid is p = 1/steps, ..., 1 - 1/steps")

    try:
        survey = load_survey(args.survey)
    except (OSError, ValidationError) as e:
        parser.error(f"--survey: {e}")
    if survey.population is None:
        print("survey has no 'pi'; the sweep needs a population", file=sys.stderr)
        return 2

    try:
        rows = sweep_rows(survey, args.n, args.steps)
        points = designed_points(survey)
    except ValidationError as e:
        parser.error(str(e))

    has_beta = bool(survey.support.nonstigmatizing_indices)
    beta_head = "    beta" if has_beta else ""
    print(f"survey: {args.survey}   m={survey.support.m}   n={args.n}")
    print(f"{'p':>6}  {'alpha':>7}  {'bound':>7}{beta_head}  {'Var(mu^)':>10}  {'sum Var(pi^)':>12}")
    for p, alpha, bound, beta, var_mu, var_pi in rows:
        beta_col = f"  {beta:6.4f}" if beta is not None else ""
        print(f"{p:6.2f}  {alpha:7.4f}  {bound:7.4f}{beta_col}  {var_mu:10.6f}  {var_pi:12.6f}")

    print("\ndesigned operating points (largest admissible p):")
    for label, p0 in points:
        print(f"  p0 = {p0:.4f}   for {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
