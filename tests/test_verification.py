"""The self-verification harness, including mutation checks.

A verification suite that cannot fail is worthless, so beyond asserting the
clean build passes, these tests corrupt the production formulas in place
(monkeypatched, sign-flipped variants) and require the harness to notice.
"""

import numpy as np
import pytest

import rrkit.estimation as estimation
import rrkit.model as model
import rrkit.oracle as oracle
import rrkit.privacy as privacy
from rrkit.verification import run_verification

from conftest import variance_and_unweighted_mean

EXPECTED_CHECKS = {
    "posterior_matches_oracle",
    "alpha_matches_oracle",
    "mean_variance_identity",
    "enumeration_agreement",
    "total_proportion_variance",
    "alpha_guarantee_tight",
    "beta_guarantee_tight",
    "estimator_unbiased",
}


def test_clean_build_passes():
    report = run_verification(grid_step=0.1)
    assert report.passed
    assert {c.name for c in report.checks} == EXPECTED_CHECKS
    for check in report.checks:
        assert check.passed, check


def test_report_json_shape():
    doc = run_verification(grid_step=0.2).to_json_dict()
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(EXPECTED_CHECKS)
    assert all(set(c) == {"name", "passed", "detail"} for c in doc["checks"])


def test_sign_flipped_mean_variance_fails_verification(monkeypatch):
    """Flip the final variance term back to the wrong transcription; the
    moment-identity and enumeration checks must both catch it."""

    def corrupted(device, support, population, n):
        p = device.p
        x = support.values_array
        mu = population.mean(support)
        sigma2, xbar = variance_and_unweighted_mean(population, support)
        spread = float(np.mean((x - xbar) ** 2))
        return (p * sigma2 + (1 - p) * spread + p * (p - 1) * (mu - xbar) ** 2) / (n * p * p)

    monkeypatch.setattr(estimation, "variance_mean_theoretical", corrupted)
    report = run_verification(grid_step=0.2)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "mean_variance_identity" in failed
    assert "enumeration_agreement" in failed


def test_sign_flipped_proportion_variance_fails_verification(monkeypatch):
    def corrupted(device, population, n):
        inv_p2 = 1.0 / (device.p * device.p)
        sum_sq = float(population.pi_array @ population.pi_array)
        return (inv_p2 - sum_sq + (inv_p2 - 1.0) / device.m) / n

    monkeypatch.setattr(estimation, "total_variance_proportions_theoretical", corrupted)
    report = run_verification(grid_step=0.2)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"total_proportion_variance"}


def test_corrupted_posterior_fails_verification(monkeypatch):
    original = privacy.revealing_probabilities

    def corrupted(device, population):
        post = original(device, population).copy()
        post[0, 0] += 1e-6
        return post

    monkeypatch.setattr(privacy, "revealing_probabilities", corrupted)
    report = run_verification(grid_step=0.2)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "posterior_matches_oracle" in failed


def test_inflated_alpha_values_fail_the_alpha_tightness_check(monkeypatch):
    """The grid search resolves privacy.alpha_values at call time, so a batch
    alpha pushed 1e-6 above the truth breaks the bound it searches for."""
    original = privacy.alpha_values
    monkeypatch.setattr(privacy, "alpha_values", lambda device, pts: original(device, pts) + 1e-6)
    report = run_verification(grid_step=0.2)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"alpha_guarantee_tight"}


def test_deflated_beta_values_fail_the_beta_tightness_check(monkeypatch):
    original = privacy.beta_values
    monkeypatch.setattr(
        privacy, "beta_values", lambda device, pts, nonstig: original(device, pts, nonstig) - 1e-6
    )
    report = run_verification(grid_step=0.2)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"beta_guarantee_tight"}


def test_fine_grid_keeps_the_point_counts():
    details = {c.name: c.detail for c in run_verification(grid_step=0.01).checks}
    assert "(5152 points)" in details["alpha_guarantee_tight"]
    assert "(3742 points)" in details["beta_guarantee_tight"]


def test_tightness_searches_do_not_depend_on_the_block_cap(monkeypatch):
    """At step 0.01 each search hands the whole lattice, and the witness after
    it, to one objective call; 128 KiB blocks (1 820 rows at m = 3) split it
    into several, and every bit of every result must stay."""

    def verify():
        found, calls = [], []
        search = oracle.simplex_grid_search

        def recorded(objective, *args, **kwargs):
            def counted(points):
                calls.append(len(points))
                return objective(points)

            found.append(search(counted, *args, **kwargs))
            return found[-1]

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "simplex_grid_search", recorded)
            doc = run_verification(grid_step=0.01).to_json_dict()
        return found, calls, doc

    whole, whole_calls, whole_doc = verify()
    monkeypatch.setattr(oracle, "GRID_BLOCK_BYTES", 1 << 17)
    split, split_calls, split_doc = verify()
    assert whole_calls == [5152, 3742]
    assert max(split_calls) <= 1820 and len(split_calls) > 2
    assert [r.points_evaluated for r in split] == [r.points_evaluated for r in whole] == [5152, 3742]
    assert [r.value for r in split] == [r.value for r in whole]
    assert [r.witness.tobytes() for r in split] == [r.witness.tobytes() for r in whole]
    assert split_doc == whole_doc


def test_a_repeated_verification_builds_and_validates_no_lattice(monkeypatch):
    """Both tightness searches share one lattice, and each keeps its input,
    validated, for the process: once a verification has run, the next at
    the same step builds no lattice and sums no point."""
    first = run_verification(grid_step=0.01).to_json_dict()

    def no_lattice(*args):
        raise AssertionError("a lattice was built or validated again")

    monkeypatch.setattr(oracle, "_count_vectors", no_lattice)
    monkeypatch.setattr(oracle, "_count_blocks", no_lattice)
    monkeypatch.setattr(model, "_row_sums", no_lattice)
    again = run_verification(grid_step=0.01).to_json_dict()
    assert again == first and again["passed"]


def test_coarser_grid_still_passes():
    assert run_verification(grid_step=0.25).passed


def test_bad_grid_step_rejected():
    from rrkit import ValidationError

    with pytest.raises(ValidationError) as e:
        run_verification(grid_step=0.07)
    assert e.value.code == "BAD_GRID"


@pytest.mark.parametrize("step", [1e-4, 0.0])
def test_too_fine_or_zero_grid_step_rejected_before_any_check(monkeypatch, step):
    from rrkit import ValidationError

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(privacy, "revealing_probabilities", no_check)
    with pytest.raises(ValidationError) as e:
        run_verification(grid_step=step)
    assert e.value.code == "BAD_GRID"
