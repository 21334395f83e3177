"""Domain types for randomized-response survey design.

Every type validates its invariants at construction and is immutable
afterwards, so instances can be shared freely across threads. Validation
failures raise :class:`ValidationError` carrying a stable machine-readable
``code`` that the CLI maps onto structured error output.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

# Input probability vectors must sum to 1 within this band; anything further
# off is rejected as bad data rather than silently rescaled.
PI_SUM_BAND = 1e-9


class ValidationError(ValueError):
    """Invalid domain input, tagged with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class PolicyMode(enum.Enum):
    """Which privacy measure a survey design must bound."""

    ALL_STIGMATIZING = "all_stigmatizing"
    NONSTIGMATIZING_SUBSET = "nonstigmatizing_subset"


def _as_finite_float(value, code: str, what: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ValidationError(code, f"{what} is not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ValidationError(code, f"{what} must be finite, got {out!r}")
    return out


def _as_support_size(value, what: str) -> int:
    """A support size m: an int or numpy integer >= 2 (never a bool), as a Python int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 2:
        raise ValidationError("BAD_SUPPORT", f"{what} must be an integer >= 2, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SupportSpec:
    """The known values x_1..x_m of the sensitive variable, with a stigma flag per value."""

    values: tuple[float, ...]
    stigma: tuple[bool, ...]

    def __post_init__(self):
        values = tuple(
            _as_finite_float(v, "BAD_SUPPORT", "support value") for v in self.values
        )
        stigma = tuple(bool(s) for s in self.stigma)
        if len(values) < 2:
            raise ValidationError("BAD_SUPPORT", "support needs at least two values")
        if len(stigma) != len(values):
            raise ValidationError(
                "BAD_SUPPORT",
                f"{len(values)} values but {len(stigma)} stigma flags",
            )
        if len(set(values)) != len(values):
            # duplicate values would alias responses: the response range must
            # identify the card semantics
            raise ValidationError("BAD_SUPPORT", "support values must be pairwise distinct")
        if not any(stigma):
            raise ValidationError("NO_STIGMATIZING", "at least one value must be stigmatizing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "stigma", stigma)

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def all_stigmatizing(self) -> bool:
        return all(self.stigma)

    @property
    def nonstigmatizing_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.stigma) if not s)

    @property
    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @property
    def unweighted_mean(self) -> float:
        """Plain average of the support values (independent of the population)."""
        return float(np.mean(self.values_array))


@dataclass(frozen=True)
class PopulationModel:
    """Population proportions over the support; a point on the probability simplex.

    Inputs are renormalized when their sum is within ``PI_SUM_BAND`` of 1 and
    rejected otherwise, so floating-point noise is tolerated but genuinely
    unnormalized data is not.
    """

    pi: tuple[float, ...]

    def __post_init__(self):
        pi = tuple(_as_finite_float(v, "BAD_PI", "probability") for v in self.pi)
        if len(pi) < 2:
            raise ValidationError("BAD_PI", "need at least two proportions")
        if any(v < 0.0 for v in pi):
            raise ValidationError("BAD_PI", f"negative proportion in {pi}")
        total = math.fsum(pi)
        if abs(total - 1.0) > PI_SUM_BAND:
            raise ValidationError(
                "BAD_PI", f"proportions sum to {total!r}, expected 1 within {PI_SUM_BAND}"
            )
        object.__setattr__(self, "pi", tuple(v / total for v in pi))

    @property
    def m(self) -> int:
        return len(self.pi)

    @property
    def pi_array(self) -> np.ndarray:
        return np.asarray(self.pi, dtype=float)

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative proportions, computed once per model; read-only."""
        cdf = np.cumsum(self.pi_array)
        cdf.flags.writeable = False
        return cdf

    @functools.cached_property
    def _search_levels(self) -> tuple[np.ndarray, ...]:
        """``cdf[:-1]`` padded with +inf to 2**k - 1 entries, the fewest with
        2**k >= m, split into the k levels of a binary search over it: the
        level of step s holds the entries s-1, 3s-1, 5s-1, ... Read-only."""
        k = (self.m - 1).bit_length()
        table = np.full(2**k - 1, np.inf)
        table[: self.m - 1] = self.cdf[:-1]
        levels = tuple(table[2**j - 1::2 ** (j + 1)].copy() for j in reversed(range(k)))
        for level in levels:
            level.flags.writeable = False
        return levels

    def inverse_cdf(
        self,
        u: np.ndarray,
        out: np.ndarray | None = None,
        *,
        flags: np.ndarray | None = None,
        probe: np.ndarray | None = None,
    ) -> np.ndarray:
        """True-value indices for uniforms ``u`` in [0, 1), element by element.

        Index i takes the uniforms in [cdf[i-1], cdf[i]), and m-1 also takes a
        uniform at or above a last cumulative sum that rounded below 1. As the
        CDF is non-decreasing, that index, ``min(searchsorted(cdf, u, "right"),
        m - 1)``, is the number of entries of ``cdf[:-1]`` at or below u. A
        branchless binary search counts them over ``cdf[:-1]`` padded with +inf
        to 2**k - 1 entries, k = ceil(log2 m), which no uniform reaches:
        ``idx += step * (u >= table[idx + step - 1])`` for step = 2**(k-1) down
        to 1, one compare pass per step. It keeps idx / step, doubled before
        each step, so that each step reads one level of the table.

        ``u`` is only read. ``out`` (int64), ``flags`` (bool) and ``probe``
        (float64), of u's shape, are scratch a caller may pass to spare the
        allocations; ``out`` is returned.
        """
        u = np.asarray(u)
        levels = self._search_levels
        if out is None:
            out = np.empty(u.shape, dtype=np.int64)
        if flags is None:
            flags = np.empty(u.shape, dtype=bool)
        if probe is None:
            probe = np.empty(u.shape)
        np.greater_equal(u, levels[0][0], out=flags)
        np.copyto(out, flags)
        for level in levels[1:]:
            # indices stay in range; "clip" lets take write into probe unbuffered
            np.take(level, out, out=probe, mode="clip")
            np.greater_equal(u, probe, out=flags)
            out += out
            out += flags
        return out

    def mean(self, support: SupportSpec) -> float:
        """Population mean of the sensitive variable under these proportions."""
        _require_same_m(support.m, self.m)
        return float(support.values_array @ self.pi_array)

    def variance(self, support: SupportSpec) -> float:
        """Population variance of the sensitive variable."""
        _require_same_m(support.m, self.m)
        mu = self.mean(support)
        return float(((support.values_array - mu) ** 2) @ self.pi_array)


def validate_population_rows(pis) -> np.ndarray:
    """A batch of populations, one per row of a (K, m) array, checked by the
    rules of :class:`PopulationModel` and renormalized the same way.

    Every row must be finite and non-negative, with at least two entries
    summing to 1 within ``PI_SUM_BAND``; the first row that breaks a rule is
    named in the ``BAD_PI`` error. Returns a new float array.
    """
    try:
        rows = np.asarray(pis, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("BAD_PI", "population rows are not a numeric array") from None
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValidationError(
            "BAD_PI", f"population rows need shape (K, m) with m >= 2, got {rows.shape}"
        )
    if not np.isfinite(rows).all():
        row = int(np.argmax(~np.isfinite(rows).all(axis=1)))
        raise ValidationError("BAD_PI", f"row {row} has a non-finite proportion")
    if (rows < 0.0).any():
        row = int(np.argmax((rows < 0.0).any(axis=1)))
        raise ValidationError("BAD_PI", f"row {row} has a negative proportion")
    totals = _row_sums(rows)
    bad = np.abs(totals - 1.0) > PI_SUM_BAND
    if bad.any():
        row = int(np.argmax(bad))
        raise ValidationError(
            "BAD_PI",
            f"row {row} sums to {float(totals[row])!r}, expected 1 within {PI_SUM_BAND}",
        )
    return rows / totals[:, None]


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Row sums equal to the correctly rounded ``math.fsum`` that
    PopulationModel divides by.

    Each addition's exact rounding error is carried along (Neumaier). Where
    the carried errors also add up exactly, total + error is the exact sum
    rounded once, as ``math.fsum`` rounds it; the rare rows where they do
    not are summed by ``math.fsum`` itself.
    """
    total = rows[:, 0].copy()
    error = np.zeros_like(total)
    exact = np.ones(len(rows), dtype=bool)
    for column in rows.T[1:]:
        summed = total + column
        step = _two_sum_error(total, column, summed)
        carried = error + step
        exact &= _two_sum_error(error, step, carried) == 0.0
        total, error = summed, carried
    sums = total + error
    for row in np.flatnonzero(~exact):
        sums[row] = math.fsum(rows[row])
    return sums


def _two_sum_error(a: np.ndarray, b: np.ndarray, summed: np.ndarray) -> np.ndarray:
    """The exact rounding error of ``summed = a + b`` (Knuth's TwoSum)."""
    virtual = summed - a
    return (a - (summed - virtual)) + (b - virtual)


@dataclass(frozen=True)
class Device:
    """The randomization device, reduced to its single tunable: the probability p
    that a respondent is instructed to report truthfully."""

    p: float
    m: int

    def __post_init__(self):
        p = _as_finite_float(self.p, "BAD_DEVICE_P", "device parameter p")
        if not 0.0 < p < 1.0:
            raise ValidationError(
                "BAD_DEVICE_P", f"device parameter must satisfy 0 < p < 1, got {p!r}"
            )
        object.__setattr__(self, "m", _as_support_size(self.m, "device support size"))
        object.__setattr__(self, "p", p)

    @property
    def forced_share(self) -> float:
        """Probability (1-p)/m of each individual forced-report card."""
        return (1.0 - self.p) / self.m


@dataclass(frozen=True)
class PrivacyPolicy:
    """A stipulated privacy requirement: threshold xi, plus, in subset mode, the
    non-stigmatizing index set and a prior lower bound c on its total mass."""

    mode: PolicyMode
    xi: float
    c: float | None = None
    nonstigmatizing: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.mode, PolicyMode):
            raise ValidationError("BAD_POLICY", f"unknown policy mode {self.mode!r}")
        xi = _as_finite_float(self.xi, "XI_OUT_OF_RANGE", "privacy threshold xi")
        if not 0.0 < xi < 1.0:
            raise ValidationError("XI_OUT_OF_RANGE", f"xi must lie in (0,1), got {xi!r}")
        object.__setattr__(self, "xi", xi)

        if self.mode is PolicyMode.ALL_STIGMATIZING:
            if self.c is not None or self.nonstigmatizing is not None:
                raise ValidationError(
                    "BAD_POLICY", "c/nonstigmatizing apply only in nonstigmatizing_subset mode"
                )
            return

        c = _as_finite_float(self.c, "C_OUT_OF_RANGE", "prior mass bound c")
        if not 0.0 < c < 1.0:
            raise ValidationError("C_OUT_OF_RANGE", f"c must lie in (0,1), got {c!r}")
        if xi >= c:
            # the standing assumption for subset mode: demanding a posterior
            # floor above the prior floor is not achievable
            raise ValidationError("XI_GE_C", f"xi ({xi!r}) must be strictly below c ({c!r})")
        object.__setattr__(self, "c", c)

        if not self.nonstigmatizing:
            raise ValidationError("BAD_NONSTIG_SET", "subset mode needs a non-empty index set")
        indices = []
        for idx in self.nonstigmatizing:
            if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
                raise ValidationError(
                    "BAD_NONSTIG_SET", f"indices must be non-negative ints, got {idx!r}"
                )
            indices.append(idx)
        if len(set(indices)) != len(indices):
            raise ValidationError("BAD_NONSTIG_SET", f"duplicate indices in {indices}")
        object.__setattr__(self, "nonstigmatizing", tuple(sorted(indices)))

    @property
    def t(self) -> int | None:
        """Number of non-stigmatizing values covered by the policy."""
        return None if self.nonstigmatizing is None else len(self.nonstigmatizing)


def validate_policy(policy: PrivacyPolicy, support: SupportSpec) -> PrivacyPolicy:
    """Cross-check a policy against a support's stigma partition.

    Returns the policy unchanged iff its mode matches the partition:
    all-stigmatizing mode requires every value stigmatizing, and subset mode
    requires the policy's index set to equal the support's non-stigmatizing
    values exactly.
    """
    if policy.mode is PolicyMode.ALL_STIGMATIZING:
        if not support.all_stigmatizing:
            raise ValidationError(
                "MODE_MISMATCH",
                "all_stigmatizing policy but the support has non-stigmatizing values "
                f"at indices {support.nonstigmatizing_indices}",
            )
        return policy

    expected = support.nonstigmatizing_indices
    if not expected:
        raise ValidationError(
            "MODE_MISMATCH", "nonstigmatizing_subset policy but every support value is stigmatizing"
        )
    if policy.nonstigmatizing != expected:
        raise ValidationError(
            "MODE_MISMATCH",
            f"policy index set {policy.nonstigmatizing} does not match the support's "
            f"non-stigmatizing values {expected}",
        )
    return policy


@dataclass(frozen=True)
class ResponseSample:
    """Observed randomized-response counts; the sole survey data artifact."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = []
        for c in self.counts:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise ValidationError("BAD_COUNTS", f"counts must be integers, got {c!r}")
            if c < 0:
                raise ValidationError("BAD_COUNTS", f"negative count {c!r}")
            counts.append(int(c))
        if len(counts) < 2:
            raise ValidationError("BAD_COUNTS", "need counts for at least two response values")
        if sum(counts) < 1:
            raise ValidationError("BAD_COUNTS", "sample size must be at least 1")
        object.__setattr__(self, "counts", tuple(counts))

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def proportions(self) -> np.ndarray:
        """Sample proportions w_i = counts_i / n."""
        return np.asarray(self.counts, dtype=float) / self.n


@dataclass(frozen=True)
class EstimateReport:
    """Estimation output bundle: raw and truncated proportion estimates, the mean
    estimate they induce, a plug-in variance, and diagnostic flags."""

    mu_hat: float
    pi_hat_raw: tuple[float, ...]
    pi_hat_truncated: tuple[float, ...]
    var_mu_plugin: float
    flags: tuple[str, ...]

    def __post_init__(self):
        trunc = self.pi_hat_truncated
        if any(v < -1e-12 or v > 1.0 + 1e-12 for v in trunc):
            raise ValidationError("BAD_ESTIMATE", f"truncated estimate off the simplex: {trunc}")
        if abs(math.fsum(trunc) - 1.0) > 1e-9:
            raise ValidationError("BAD_ESTIMATE", f"truncated estimate does not sum to 1: {trunc}")

    def to_json_dict(self) -> dict:
        return {
            "mu_hat": self.mu_hat,
            "pi_hat_raw": list(self.pi_hat_raw),
            "pi_hat_truncated": list(self.pi_hat_truncated),
            "var_mu_plugin": self.var_mu_plugin,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class SurveyDefinition:
    """A parsed survey definition document: support, optional population, optional policy."""

    support: SupportSpec
    population: PopulationModel | None
    policy: PrivacyPolicy | None


def parse_survey_document(doc) -> SurveyDefinition:
    """Build a survey from a JSON-style document.

    Expected keys: ``values`` (numbers), ``stigmatizing`` (booleans), optional
    ``pi`` (numbers), optional ``privacy`` (object with ``mode``, ``xi`` and,
    in subset mode, ``c`` and ``nonstigmatizing``). The privacy policy, when
    present, is cross-validated against the stigma flags.
    """
    if not isinstance(doc, dict):
        raise ValidationError("BAD_SURVEY", "survey document must be a JSON object")
    for key in ("values", "stigmatizing"):
        if key not in doc:
            raise ValidationError("BAD_SURVEY", f"survey document is missing key {key!r}")
    if not isinstance(doc["values"], (list, tuple)) or not isinstance(
        doc["stigmatizing"], (list, tuple)
    ):
        raise ValidationError("BAD_SURVEY", "'values' and 'stigmatizing' must be arrays")
    support = SupportSpec(values=tuple(doc["values"]), stigma=tuple(doc["stigmatizing"]))

    population = None
    if doc.get("pi") is not None:
        if not isinstance(doc["pi"], (list, tuple)):
            raise ValidationError("BAD_SURVEY", "'pi' must be an array")
        population = PopulationModel(pi=tuple(doc["pi"]))
        _require_same_m(support.m, population.m)

    policy = None
    if doc.get("privacy") is not None:
        privacy = doc["privacy"]
        if not isinstance(privacy, dict) or "mode" not in privacy or "xi" not in privacy:
            raise ValidationError("BAD_SURVEY", "'privacy' must be an object with 'mode' and 'xi'")
        try:
            mode = PolicyMode(privacy["mode"])
        except ValueError:
            raise ValidationError(
                "BAD_SURVEY",
                f"unknown privacy mode {privacy['mode']!r}; expected one of "
                f"{[m.value for m in PolicyMode]}",
            ) from None
        nonstig = privacy.get("nonstigmatizing")
        policy = PrivacyPolicy(
            mode=mode,
            xi=privacy["xi"],
            c=privacy.get("c"),
            nonstigmatizing=None if nonstig is None else tuple(nonstig),
        )
        validate_policy(policy, support)

    return SurveyDefinition(support=support, population=population, policy=policy)


def load_survey(path) -> SurveyDefinition:
    """Read and parse a survey definition JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError("BAD_SURVEY", f"{path}: not valid JSON ({exc})") from None
    return parse_survey_document(doc)


def _require_same_m(expected: int, got: int) -> None:
    if expected != got:
        raise ValidationError(
            "DIMENSION_MISMATCH", f"dimension mismatch: expected m={expected}, got m={got}"
        )


def _require_finite(value: float, what: str, p: float) -> float:
    """A reported quantity, refused with ``NONFINITE_RESULT`` unless it is a
    finite float; such values come from a device parameter p near 0."""
    if not math.isfinite(value):
        raise ValidationError(
            "NONFINITE_RESULT",
            f"{what} is {value!r} at p={p!r}, not a finite number; p is too close to 0 "
            "for this survey",
        )
    return value
