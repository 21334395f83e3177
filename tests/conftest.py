import pathlib

import numpy as np
import pytest

from rrkit import Device, PopulationModel, SupportSpec, oracle

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SURVEY_DIR = REPO_ROOT / "surveys"

ACCEPTANCE_KEY = pytest.StashKey[list]()


def variance_and_unweighted_mean(population, support):
    """The population variance of the sensitive variable, and the plain
    average of the support values: the two terms that the sign-flipped
    variance formula of the tests needs besides the mean."""
    x = support.values_array
    mu = population.mean(support)
    return float(((x - mu) ** 2) @ population.pi_array), float(np.mean(x))


def closed_forms_on_numpy(device, support, population, n):
    """var_mu_theoretical, the summed variance of the proportion estimators
    and mu_X, by the numpy expressions that computed them before they moved
    to Python floats: means by ``np.mean`` and the weighted sums by 1-D BLAS
    dots. Overflow gives inf or NaN here, where the closed forms refuse."""
    x, pi, p = support.values_array, population.pi_array, device.p
    with np.errstate(over="ignore", invalid="ignore"):
        d = x - np.mean(x)
        d -= np.mean(d)
        spread = float(np.mean(d * d))
        shift = float(pi @ d)
        sigma2 = float((d - shift) ** 2 @ pi)
        var_mu = (p * sigma2 + (1.0 - p) * spread + p * (1.0 - p) * shift**2) / (n * p * p)
    inv_p2 = 1.0 / (p * p)
    var_pi = (inv_p2 - float(pi @ pi) - (inv_p2 - 1.0) / device.m) / n
    return var_mu, var_pi, float(x @ pi)


def simplex_grid_points(m, step):
    """Lattice points on the probability simplex with spacing ``step``, as the
    rows of a (K, m) array in the order of ``enumerate_count_vectors``: the
    points that ``oracle.simplex_grid_search`` visits, built the way it
    builds them. ``step`` is refused as the search refuses it."""
    k, extras, idx, floor = oracle._search_plan(m, step, None, None, ())
    blocks = oracle._search_blocks(k, m, extras, idx, floor)
    return np.concatenate(list(blocks), axis=1).T.copy()


def pytest_configure(config):
    config.stash[ACCEPTANCE_KEY] = []


@pytest.fixture
def verdict(request):
    """Record one PASS/FAIL line per acceptance criterion for the run summary."""
    lines = request.config.stash[ACCEPTANCE_KEY]

    def report(num: int, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
        lines.append(line)
        assert ok, line

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash[ACCEPTANCE_KEY]
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def support2():
    return SupportSpec(values=(0.0, 1.0), stigma=(True, True))


@pytest.fixture
def support3():
    return SupportSpec(values=(0.0, 1.0, 2.0), stigma=(True, True, True))


@pytest.fixture
def pop2():
    return PopulationModel(pi=(0.3, 0.7))


@pytest.fixture
def pop3():
    return PopulationModel(pi=(0.5, 0.3, 0.2))


@pytest.fixture
def device_half2():
    return Device(p=0.5, m=2)


@pytest.fixture
def device_half3():
    return Device(p=0.5, m=3)


@pytest.fixture
def survey_all_stig_m4():
    return SURVEY_DIR / "all_stigmatizing_m4.json"


@pytest.fixture
def survey_one_nonstig_m3():
    return SURVEY_DIR / "one_nonstigmatizing_m3.json"
