#!/usr/bin/env python3
"""Replication study: does the empirical sampling variance track the closed form?

Runs seeded survey replicates at several sample sizes and compares the spread
of the mean estimates with the theoretical variance. A well-calibrated build
shows a variance ratio near 1 and a mean within a few Monte Carlo standard
errors of the population mean at every n.
"""

import argparse
import math

from rrkit import (
    Device,
    ValidationError,
    design,
    load_survey,
    simulation,
)


def sample_sizes(text):
    """The sample sizes of ``--n``: comma-separated integers, each at least 1."""
    try:
        sizes = [int(part) for part in text.split(",")]
        if min(sizes) >= 1:
            return sizes
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 1, got {text!r}")


def checked_config(survey, device, n, replicates, seed):
    """The run at sample size n, refused with ``ValidationError`` as
    ``run_replicates`` would refuse it, before anything is allocated."""
    config = simulation.SimulationConfig(
        support=survey.support,
        population=survey.population,
        device=device,
        n=n,
        replicates=replicates,
        seed=seed,
    )
    workers = simulation.thread_count(replicates, n)
    simulation._check_memory(n, survey.support.m, replicates, workers, False)
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--survey", default="surveys/one_nonstigmatizing_m3.json", help="survey definition file"
    )
    parser.add_argument("--p", type=float, default=None, help="device truth-probability override")
    parser.add_argument(
        "--n", type=sample_sizes, default="100,250,500,1000", help="comma-separated sample sizes"
    )
    parser.add_argument("--replicates", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=20240801)
    args = parser.parse_args(argv)
    if args.replicates < 2:
        parser.error("--replicates must be at least 2: the study compares a sample variance")

    try:
        survey = load_survey(args.survey)
    except (OSError, ValidationError) as e:
        parser.error(f"--survey: {e}")
    if survey.population is None:
        parser.error("survey has no 'pi'; the study needs a population")
    if args.p is not None:
        try:
            device = Device(p=args.p, m=survey.support.m)
        except ValidationError as e:
            parser.error(f"--p: {e}")
        source = f"--p {args.p}"
    elif survey.policy is not None:
        device, cert = design.design_device(survey.policy, survey.support)
        source = f"designed from the survey policy ({cert.mode.value}, p0={cert.p0:.4f})"
    else:
        parser.error("survey has no privacy policy; pass --p")
    try:
        configs = [checked_config(survey, device, n, args.replicates, args.seed) for n in args.n]
        summaries = [simulation.run_replicates(config) for config in configs]
    except ValidationError as e:
        parser.error(str(e))

    mu_x = survey.population.mean(survey.support)
    print(f"survey: {args.survey}")
    print(f"device: p = {device.p:.6f}  ({source})")
    print(f"population mean = {mu_x:.6f}   replicates = {args.replicates}   seed = {args.seed}\n")

    header = f"{'n':>6}  {'mean(mu^)':>10}  {'bias':>9}  {'bias/se':>8}  {'emp var':>10}  {'theory':>10}  {'ratio':>6}"
    print(header)
    worst_ratio = 0.0
    for n, s in zip(args.n, summaries):
        bias = s.mean_mu_hat - mu_x
        # every estimate equal: no Monte Carlo spread to scale the bias by
        z = bias / s.mc_se_mean if s.mc_se_mean else math.nan
        ratio = s.variance_ratio
        worst_ratio = max(worst_ratio, abs(ratio - 1.0))
        print(
            f"{n:6d}  {s.mean_mu_hat:10.6f}  {bias:9.6f}  {z:8.2f}  "
            f"{s.var_mu_hat_empirical:10.6f}  {s.var_mu_theoretical:10.6f}  {ratio:6.3f}"
        )

    print(f"\nworst |variance ratio - 1| = {worst_ratio:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
