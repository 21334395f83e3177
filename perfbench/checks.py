"""Output checks for every command the benchmark runs.

Each check recomputes the expected answer from the survey documents and the
paper's closed forms in plain Python; nothing here imports rrkit, so a defect
in the package cannot make a check agree with it. A check returns ``None``
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math

EXACT_TOL = 1e-12
# statistical checks on simulate allow this many standard errors
SIGMAS = 5.0

# `rrkit table` with its default grid, as printed in the README
README_TABLE = (
    "m,0.1,0.2,0.3,0.4\n"
    "3,0.1413,0.2941,0.4494,0.5970\n"
    "4,0.1099,0.2381,0.3797,0.5263\n"
    "5,0.0899,0.2000,0.3288,0.4706\n"
)
TABLE_MS = (3, 4, 5)
TABLE_XIS = (0.1, 0.2, 0.3, 0.4)
VERIFY_CHECKS = 8


def p0_all_stigmatizing(m: int, xi: float) -> float:
    return 1.0 / (1.0 + (m / xi) * ((1.0 - xi) / 2.0) ** 2)


def p0_nonstigmatizing(m: int, xi: float, c: float) -> float:
    a = (c - xi) / m
    return a / (a + xi * (1.0 - c))


class Survey:
    """The facts about a survey document that the checks need."""

    def __init__(self, doc: dict):
        self.values = [float(v) for v in doc["values"]]
        self.m = len(self.values)
        self.pi = [float(v) for v in doc["pi"]]
        policy = doc["privacy"]
        self.mode = policy["mode"]
        self.xi = float(policy["xi"])
        if self.mode == "all_stigmatizing":
            self.c = None
            self.nonstig = None
            self.p0 = p0_all_stigmatizing(self.m, self.xi)
        else:
            self.c = float(policy["c"])
            self.nonstig = sorted(policy["nonstigmatizing"])
            self.p0 = p0_nonstigmatizing(self.m, self.xi, self.c)
        self.mu = math.fsum(x * w for x, w in zip(self.values, self.pi))

    @classmethod
    def load(cls, path) -> "Survey":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def posterior(self, p: float) -> list[list[float]]:
        """Prob(X = x_i | R = x_j) from the device kernel and Bayes' rule."""
        q = (1.0 - p) / self.m
        lam = [p * w + q for w in self.pi]
        return [
            [((p if i == j else 0.0) + q) * self.pi[i] / lam[j] for j in range(self.m)]
            for i in range(self.m)
        ]

    def mean_variance(self, p: float, n: int) -> float:
        """Exact variance of the mean estimator: the response counts are Multinomial(n, lambda)."""
        q = (1.0 - p) / self.m
        lam = [p * w + q for w in self.pi]
        first = math.fsum(x * l for x, l in zip(self.values, lam))
        second = math.fsum(x * x * l for x, l in zip(self.values, lam))
        return (second - first * first) / (n * p * p)


def _close(got, want: float, tol: float = EXACT_TOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want))


def _json(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON ({exc})"


def check_simulate(rc: int, stdout: str, survey: Survey, n: int, replicates: int, seed: int):
    if rc != 0:
        return f"simulate exited {rc}"
    doc, err = _json(stdout)
    if err:
        return err
    if (doc.get("n"), doc.get("replicates"), doc.get("seed")) != (n, replicates, seed):
        return "simulate echoed the wrong n, replicates or seed"
    if not _close(doc.get("p"), survey.p0):
        return f"p = {doc.get('p')!r}, closed-form p0 = {survey.p0!r}"
    if not _close(doc.get("mu_x"), survey.mu):
        return f"mu_x = {doc.get('mu_x')!r}, expected {survey.mu!r}"
    var = survey.mean_variance(survey.p0, n)
    if not _close(doc.get("var_mu_theoretical"), var, 1e-9):
        return f"var_mu_theoretical = {doc.get('var_mu_theoretical')!r}, expected {var!r}"
    se, mean, ratio = doc.get("mc_se_mean"), doc.get("mean_mu_hat"), doc.get("variance_ratio")
    if not all(isinstance(v, (int, float)) for v in (se, mean, ratio)):
        return "simulate summary lacks mean_mu_hat, mc_se_mean or variance_ratio"
    if abs(mean - survey.mu) > SIGMAS * se:
        return f"mean_mu_hat {mean!r} is more than {SIGMAS} SE ({se!r}) from mu {survey.mu!r}"
    ratio_tol = SIGMAS * math.sqrt(2.0 / (replicates - 1))
    if abs(ratio - 1.0) > ratio_tol:
        return f"variance_ratio {ratio!r} is more than {ratio_tol:.4f} from 1"
    return None


def check_verify(rc: int, stdout: str):
    lines = stdout.splitlines()
    passes = [line for line in lines if line.startswith("PASS ")]
    if any(line.startswith("FAIL") for line in lines):
        return "verify printed a FAIL line"
    if len(passes) != VERIFY_CHECKS:
        return f"verify printed {len(passes)} PASS lines, expected {VERIFY_CHECKS}"
    if not lines or lines[-1] != "verification passed":
        return "verify did not end with 'verification passed'"
    if rc != 0:
        return f"verify exited {rc}"
    return None


def check_design_m(rc: int, stdout: str, m: int, xi: float):
    if rc != 0:
        return f"design exited {rc}"
    doc, err = _json(stdout)
    if err:
        return err
    if (doc.get("mode"), doc.get("m"), doc.get("xi")) != ("all_stigmatizing", m, xi):
        return "design certificate has the wrong mode, m or xi"
    if not _close(doc.get("p0"), p0_all_stigmatizing(m, xi)):
        return f"p0 = {doc.get('p0')!r}, closed form {p0_all_stigmatizing(m, xi)!r}"
    return None


def check_design_survey(rc: int, stdout: str, survey: Survey):
    if rc != 0:
        return f"design exited {rc}"
    doc, err = _json(stdout)
    if err:
        return err
    t = 0 if survey.nonstig is None else len(survey.nonstig)
    if (doc.get("mode"), doc.get("m"), doc.get("xi"), doc.get("c"), doc.get("t")) != (
        survey.mode, survey.m, survey.xi, survey.c, t
    ):
        return "design certificate has the wrong mode, m, xi, c or t"
    if not _close(doc.get("p0"), survey.p0):
        return f"p0 = {doc.get('p0')!r}, closed form {survey.p0!r}"
    return None


def check_table(rc: int, stdout: str):
    if rc != 0:
        return f"table exited {rc}"
    rows = stdout.splitlines()
    if len(rows) != len(TABLE_MS) + 1:
        return f"table has {len(rows)} lines, expected {len(TABLE_MS) + 1}"
    for m, row in zip(TABLE_MS, rows[1:]):
        cells = row.split(",")
        if cells[0] != str(m) or len(cells) != len(TABLE_XIS) + 1:
            return f"table row {row!r} is malformed"
        for xi, cell in zip(TABLE_XIS, cells[1:]):
            if not _close(float(cell), round(p0_all_stigmatizing(m, xi), 4)):
                return f"table cell m={m}, xi={xi} reads {cell}"
    if stdout != README_TABLE:
        return "table differs from the README table"
    return None


def check_privacy(rc: int, stdout: str, survey: Survey):
    if rc != 0:
        return f"privacy exited {rc}"
    doc, err = _json(stdout)
    if err:
        return err
    p = doc.get("p")
    if not _close(p, survey.p0):
        return f"p = {p!r}, closed-form p0 = {survey.p0!r}"
    posterior = doc.get("posterior")
    want = survey.posterior(p)
    if not isinstance(posterior, list) or len(posterior) != survey.m:
        return "posterior has the wrong shape"
    for j in range(survey.m):
        column = [row[j] for row in posterior]
        if abs(math.fsum(column) - 1.0) > EXACT_TOL:
            return f"posterior column {j} sums to {math.fsum(column)!r}"
        for i in range(survey.m):
            if not _close(posterior[i][j], want[i][j]):
                return f"posterior[{i}][{j}] = {posterior[i][j]!r}, expected {want[i][j]!r}"
    bound = doc.get("guaranteed_bound")
    if survey.mode == "all_stigmatizing":
        alpha = max(abs(want[i][j] - survey.pi[i]) for i in range(survey.m) for j in range(survey.m))
        if not _close(doc.get("alpha"), alpha):
            return f"alpha = {doc.get('alpha')!r}, expected {alpha!r}"
        if not (_close(bound, survey.xi, 1e-9) and doc["alpha"] <= bound + EXACT_TOL):
            return f"alpha {doc['alpha']!r} exceeds its bound {bound!r} (xi = {survey.xi})"
    else:
        beta = min(math.fsum(want[i][j] for i in survey.nonstig) for j in range(survey.m))
        if not _close(doc.get("beta"), beta):
            return f"beta = {doc.get('beta')!r}, expected {beta!r}"
        if not (_close(bound, survey.xi, 1e-9) and doc["beta"] >= bound - EXACT_TOL):
            return f"beta {doc['beta']!r} is below its bound {bound!r} (xi = {survey.xi})"
    return None


def check_estimate(rc: int, stdout: str, survey: Survey, counts: list[int]):
    if rc != 0:
        return f"estimate exited {rc}"
    doc, err = _json(stdout)
    if err:
        return err
    n = sum(counts)
    p = survey.p0
    q = (1.0 - p) / survey.m
    mu = math.fsum(x * ((c / n - q) / p) for x, c in zip(survey.values, counts))
    if not _close(doc.get("mu_hat"), mu):
        return f"mu_hat = {doc.get('mu_hat')!r}, x.((w-q)/p) = {mu!r}"
    return None
