"""Domain types for randomized-response survey design.

This module is the domain layer: the types and one validation rule per
input. The rules that draw from these types, the truth by inverse CDF and
the response by the device's card, are :mod:`rrkit.simulation`'s.

Every type validates its invariants at construction and is immutable
afterwards, so instances can be shared freely across threads. An array that
a record holds, or that a cache hands out, is made by :func:`_frozen`, so
that no view of it can be made writeable either; so what is computed from
it can be kept, as :func:`_remembered` keeps a validated batch. Validation
failures raise :class:`ValidationError` carrying a stable machine-readable
``code`` that the CLI maps onto structured error output.

numpy is imported inside the methods that build arrays, so that building and
validating these types, which is all that ``design``, ``table``, ``privacy``
and ``estimate`` need, never loads it. For the same reason every value type
of rrkit is a plain class over :class:`_Record`, which imports nothing: the
standard library's generated classes load ``inspect`` and ``exec`` their
methods at import, which together cost a cold command several milliseconds.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import sys

# Input probability vectors must sum to 1 within this band; anything further
# off is rejected as bad data rather than silently rescaled.
PI_SUM_BAND = 1e-9

# simulate and privacy refuse, before they allocate, a run planned past this
MEMORY_BUDGET_BYTES = 4 * 2**30


class ValidationError(ValueError):
    """Invalid domain input, tagged with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _frozen(values) -> np.ndarray:
    """``values`` as an array over an immutable buffer: neither it nor any view
    of it can be made writeable. Every array that rrkit shares through a cache
    or stores in a record is made here."""
    import numpy as np

    array = np.asarray(values)
    return np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)


# what _remembered has computed, keyed by the batch; cleared whole when full
_REMEMBERED: dict = {}
_REMEMBERED_ENTRIES = 8


def _remembered(compute, batch) -> np.ndarray:
    """``compute(batch)`` for an array ``batch`` over an immutable ``bytes``
    buffer, as :func:`_frozen` makes, is computed once and frozen, and every
    later call with the same view of the same buffer returns it; any other
    ``batch`` is computed afresh on every call. An error is never kept.

    A view is the same when the buffer is the same object and the view's
    start, shape, strides and dtype are equal. The table holds the buffers,
    so that no id in it is reused while the entry lives."""
    import numpy as np

    owner = batch
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if type(owner) is not bytes:
        return compute(batch)
    key = (
        compute, id(owner), batch.__array_interface__["data"][0],
        batch.shape, batch.strides, batch.dtype.str,
    )
    entry = _REMEMBERED.get(key)
    if entry is None:
        entry = (owner, _frozen(compute(batch)))
        if len(_REMEMBERED) >= _REMEMBERED_ENTRIES:
            _REMEMBERED.clear()
        _REMEMBERED[key] = entry
    return entry[1]


def _check_budget(planned: int, budget: int, plan: str, advice: str = "") -> None:
    """Refuse with ``RESOURCE_LIMIT`` a ``plan`` of ``planned`` bytes over
    ``budget``, the ``MEMORY_BUDGET_BYTES`` that the caller's module reads."""
    if planned > budget:
        raise ValidationError(
            "RESOURCE_LIMIT", f"{plan} {planned} bytes, over the {budget}-byte budget{advice}"
        )


class _Record:
    """An immutable record over the field names in ``_fields``; every value
    type of rrkit is one.

    The constructor binds positional and keyword arguments to ``_fields`` in
    order, takes a missing field from the per-class ``_defaults`` table, and
    raises ``TypeError`` for a missing, unknown or repeated argument. A class
    that validates its arguments, or is built once per replicate, writes its
    own ``__init__`` instead and stores its fields in one statement:
    ``self.__dict__.update``, or a single item assignment for a single field,
    which is faster.

    Assignment and deletion raise ``AttributeError``. Two records are equal
    when they are of the same class with equal field tuples, and hash as
    that tuple, so a record holding an ndarray stays unhashable. The repr is
    ``Name(field=value, ...)`` over the fields in order, less those named in
    ``_repr_omits``. The JSON document, ``to_json_dict``, holds the names in
    ``_json_fields``, or else the fields, in order, each read by ``getattr``
    so that a property can be listed: a tuple or list as a list, recursively,
    an enum as its ``value``, a record as its own document.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _repr_omits: tuple[str, ...] = ()
    _json_fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        for key, value in zip(fields, args):
            if key in kwargs:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            kwargs[key] = value
        # the common case, every field given, costs one length check and one pass
        if len(kwargs) != len(fields) or not all(map(kwargs.__contains__, fields)):
            for key in kwargs:
                if key not in fields:
                    raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            missing = [key for key in fields if key not in kwargs and key not in self._defaults]
            if missing:
                raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
            kwargs = {**self._defaults, **kwargs}
        self.__dict__.update(kwargs)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._repr_omits
        )
        return f"{self.__class__.__qualname__}({fields})"

    def to_json_dict(self) -> dict:
        return {name: _json_value(getattr(self, name)) for name in self._json_fields or self._fields}


_JSON_SCALARS = frozenset((float, int, str, bool, type(None)))


def _json_value(value):
    """``value`` as a record's JSON document holds it; scalars, the commonest, come first."""
    if type(value) in _JSON_SCALARS:
        return value
    if type(value) in (tuple, list):
        return [v if type(v) in _JSON_SCALARS else _json_value(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, _Record):
        return value.to_json_dict()
    return value


class PolicyMode(enum.Enum):
    """Which privacy measure a survey design must bound."""

    ALL_STIGMATIZING = "all_stigmatizing"
    NONSTIGMATIZING_SUBSET = "nonstigmatizing_subset"


def _as_finite_float(value, code: str, what: str) -> float:
    """A finite real number as a Python float. Any ``numbers.Real`` is
    accepted, numpy's floats and integers included; a bool, numpy's bool and a
    string are not."""
    # a plain float or int skips the ABC check, as in _as_int
    real = type(value) in (float, int) or (
        not isinstance(value, bool) and isinstance(value, numbers.Real)
    )
    if not real:
        raise ValidationError(code, f"{what} is not a number: {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValidationError(code, f"{what} must be finite, got {out!r}")
    return out


def _as_int(value, code: str, what: str, minimum: int) -> int:
    """An integer at or above ``minimum`` as a Python int. Any ``numbers.Integral``
    is accepted, numpy's integers included; a bool, a float such as 3.0 and a
    string are not."""
    # a plain int skips the ABC check, which costs ~0.5 us per value
    integral = type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )
    if not integral or value < minimum:
        raise ValidationError(code, f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


# --- one rule per domain input -----------------------------------------------


def _unit_interval(value, code: str, what: str) -> float:
    """A number strictly between 0 and 1 as a Python float, by the rule of
    ``_as_finite_float``: the device parameter p, the threshold xi and the
    prior floor c, each refused with its own code."""
    out = _as_finite_float(value, code, what)
    if not 0.0 < out < 1.0:
        raise ValidationError(code, f"{what} must lie in (0, 1), got {out!r}")
    return out


def _xi_below_c(xi: float, c: float) -> None:
    """Subset mode's standing assumption: a posterior floor xi at or above the
    prior floor c cannot be met, since randomization only dilutes prior mass."""
    if xi >= c:
        raise ValidationError("XI_GE_C", f"xi ({xi!r}) must be strictly below c ({c!r})")


def _index_set(indices, m: int | None = None) -> tuple[int, ...]:
    """The non-stigmatizing index set, sorted: a non-empty collection of
    distinct integers >= 0 under ``_as_int``. Given the support size m, every
    index must lie below m and at least one value must be left stigmatizing."""
    try:
        items = iter(indices)
    except TypeError:
        raise ValidationError(
            "BAD_NONSTIG_SET", f"subset mode needs a collection of indices, got {indices!r}"
        ) from None
    out = sorted(_as_int(i, "BAD_NONSTIG_SET", "non-stigmatizing index", 0) for i in items)
    if not out:
        raise ValidationError("BAD_NONSTIG_SET", "subset mode needs a non-empty index set")
    if len(set(out)) != len(out):
        raise ValidationError("BAD_NONSTIG_SET", f"duplicate indices in {out}")
    if m is not None and out[-1] >= m:
        raise ValidationError("BAD_NONSTIG_SET", f"indices {tuple(out)} out of range for m={m}")
    if m is not None and len(out) >= m:
        raise ValidationError("BAD_NONSTIG_SET", "every value is non-stigmatizing; beta is undefined")
    return tuple(out)


def _sample_size(n) -> int:
    """The number of respondents n, at least 1."""
    return _as_int(n, "BAD_N", "sample size", 1)


def _support_size(m) -> int:
    """The number of support values m, from 2 to 2**53, the largest m that
    the closed forms, which take m as a float, hold exactly."""
    m = _as_int(m, "BAD_SUPPORT", "support size m", 2)
    if m > 2**53:
        raise ValidationError("BAD_SUPPORT", f"support size m must be at most 2**53, got {m.bit_length()} bits")
    return m


def _as_stigma_flag(value) -> bool:
    """A bool, or numpy's bool as a bool; no other type is a stigma flag."""
    if type(value) is bool:
        return value
    # numpy is imported only by the commands that need it; a value cannot be
    # numpy's bool unless it has been
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.bool_):
        return bool(value)
    raise ValidationError("BAD_SUPPORT", f"stigma flag must be true or false, got {value!r}")


class SupportSpec(_Record):
    """The known values x_1..x_m of the sensitive variable, with a stigma flag per value."""

    _fields = ("values", "stigma")

    def __init__(self, values: tuple[float, ...], stigma: tuple[bool, ...]):
        values = tuple(_as_finite_float(v, "BAD_SUPPORT", "support value") for v in values)
        stigma = tuple(_as_stigma_flag(s) for s in stigma)
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
        self.__dict__.update(values=values, stigma=stigma)

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
        import numpy as np

        return np.asarray(self.values, dtype=float)


class PopulationModel(_Record):
    """Population proportions over the support; a point on the probability simplex.

    Inputs are renormalized when their sum is within ``PI_SUM_BAND`` of 1 and
    rejected otherwise, so floating-point noise is tolerated but genuinely
    unnormalized data is not.
    """

    _fields = ("pi",)

    def __init__(self, pi: tuple[float, ...]):
        pi = tuple(_as_finite_float(v, "BAD_PI", "probability") for v in pi)
        if len(pi) < 2:
            raise ValidationError("BAD_PI", "need at least two proportions")
        if any(v < 0.0 for v in pi):
            raise ValidationError("BAD_PI", f"negative proportion in {pi}")
        total = _proportion_sum(pi)
        if abs(total - 1.0) > PI_SUM_BAND:
            raise ValidationError(
                "BAD_PI", f"proportions sum to {total!r}, expected 1 within {PI_SUM_BAND}"
            )
        self.__dict__["pi"] = tuple(v / total for v in pi)

    @property
    def m(self) -> int:
        return len(self.pi)

    @property
    def pi_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.pi, dtype=float)

    def mean(self, support: SupportSpec) -> float:
        """Population mean of the sensitive variable under these proportions;
        refused with ``NONFINITE_RESULT`` where the exact sum rounds past the
        largest float, as it can for values within an ulp or two of it."""
        _require_same_m(support.m, self.m)
        try:
            return math.fsum(x * w for x, w in zip(support.values, self.pi))
        except OverflowError:
            raise ValidationError(
                "NONFINITE_RESULT",
                "mu_x is past the largest float: the support's values are too large for its mean",
            ) from None


def _proportion_sum(values) -> float:
    """``math.fsum`` of finite non-negative proportions, or inf where their
    exact sum is past the largest float (``math.fsum`` raises there), so that
    such proportions are refused as any sum far from 1 is."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _rows_and_sums(pis) -> tuple[np.ndarray, np.ndarray]:
    """A batch of populations, one per row of a (K, m) array, checked by the
    rules of :class:`PopulationModel`, and the sums that renormalize them the
    same way.

    Every entry must be a number under ``_as_finite_float``, which names the
    first that is not, and every row finite and non-negative, with at least
    two entries summing to 1 within ``PI_SUM_BAND``; the first row that breaks
    one of those rules is named in the ``BAD_PI`` error. Returns the rows as
    a float array, not yet renormalized, and their sums.
    """
    import numpy as np

    # an int or float array holds only numbers and is cast whole; any other
    # input goes entry by entry, so that a bool or a string is refused
    numeric = isinstance(pis, np.ndarray) and pis.dtype.kind in "fiu"
    try:
        rows = pis if numeric else np.array(pis, dtype=object)
    except (TypeError, ValueError):
        raise ValidationError("BAD_PI", "population rows are not a numeric array") from None
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValidationError(
            "BAD_PI", f"population rows need shape (K, m) with m >= 2, got {rows.shape}"
        )
    rows = rows.astype(float, copy=False) if numeric else np.reshape(
        [_as_finite_float(v, "BAD_PI", "probability") for v in rows.flat], rows.shape
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
    return rows, totals


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Row sums equal to the correctly rounded ``math.fsum`` that
    PopulationModel divides by.

    Each addition's exact rounding error is carried along (Neumaier). Where
    the carried errors also add up exactly, total + error is the exact sum
    rounded once, as ``math.fsum`` rounds it; the rare rows where they do
    not are summed by ``math.fsum`` itself.
    """
    import numpy as np

    total = rows[:, 0].copy()
    error = np.zeros_like(total)
    exact = np.ones(len(rows), dtype=bool)
    # a row summing past the largest float overflows to inf and its errors to
    # NaN, which fails the exactness test: _proportion_sum gives it inf
    with np.errstate(over="ignore", invalid="ignore"):
        for column in rows.T[1:]:
            summed = total + column
            step = _two_sum_error(total, column, summed)
            carried = error + step
            exact &= _two_sum_error(error, step, carried) == 0.0
            total, error = summed, carried
        sums = total + error
    for row in np.flatnonzero(~exact):
        sums[row] = _proportion_sum(rows[row])
    return sums


def _two_sum_error(a: np.ndarray, b: np.ndarray, summed: np.ndarray) -> np.ndarray:
    """The exact rounding error of ``summed = a + b`` (Knuth's TwoSum)."""
    virtual = summed - a
    return (a - (summed - virtual)) + (b - virtual)


class Device(_Record):
    """The randomization device, reduced to its single tunable: the probability p
    that a respondent is instructed to report truthfully."""

    _fields = ("p", "m")

    def __init__(self, p: float, m: int):
        p = _unit_interval(p, "BAD_DEVICE_P", "device parameter p")
        self.__dict__.update(p=p, m=_support_size(m))

    @property
    def forced_share(self) -> float:
        """Probability (1-p)/m of each individual forced-report card."""
        return (1.0 - self.p) / self.m


class PrivacyPolicy(_Record):
    """A stipulated privacy requirement: threshold xi, plus, in subset mode, the
    non-stigmatizing index set and a prior lower bound c on its total mass."""

    _fields = ("mode", "xi", "c", "nonstigmatizing")

    def __init__(
        self,
        mode: PolicyMode,
        xi: float,
        c: float | None = None,
        nonstigmatizing: tuple[int, ...] | None = None,
    ):
        if not isinstance(mode, PolicyMode):
            raise ValidationError("BAD_POLICY", f"unknown policy mode {mode!r}")
        xi = _unit_interval(xi, "XI_OUT_OF_RANGE", "privacy threshold xi")
        if mode is PolicyMode.ALL_STIGMATIZING:
            if c is not None or nonstigmatizing is not None:
                raise ValidationError(
                    "BAD_POLICY", "c/nonstigmatizing apply only in nonstigmatizing_subset mode"
                )
        else:
            c = _unit_interval(c, "C_OUT_OF_RANGE", "prior mass bound c")
            _xi_below_c(xi, c)
            nonstigmatizing = _index_set(nonstigmatizing)
        self.__dict__.update(mode=mode, xi=xi, c=c, nonstigmatizing=nonstigmatizing)

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


class ResponseSample(_Record):
    """Observed randomized-response counts; the sole survey data artifact."""

    _fields = ("counts",)

    def __init__(self, counts: tuple[int, ...]):
        counts = [_as_int(c, "BAD_COUNTS", "count", 0) for c in counts]
        if len(counts) < 2:
            raise ValidationError("BAD_COUNTS", "need counts for at least two response values")
        n = sum(counts)
        if n < 1:
            raise ValidationError("BAD_COUNTS", "sample size must be at least 1")
        # below the cap every count and n are exact as floats, and c / n is
        # float(c) / float(n) rounded once
        if n > 2**53:
            raise ValidationError(
                "BAD_COUNTS", f"sample size must be at most 2**53, got {n.bit_length()} bits"
            )
        self.__dict__["counts"] = tuple(counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def proportions(self) -> tuple[float, ...]:
        """Sample proportions w_i = counts_i / n."""
        n = self.n
        return tuple(c / n for c in self.counts)


class EstimateReport(_Record):
    """Estimation output bundle: raw and truncated proportion estimates, the mean
    estimate they induce, a plug-in variance, and diagnostic flags."""

    _fields = ("mu_hat", "pi_hat_raw", "pi_hat_truncated", "var_mu_plugin", "flags")

    def __init__(
        self,
        mu_hat: float,
        pi_hat_raw: tuple[float, ...],
        pi_hat_truncated: tuple[float, ...],
        var_mu_plugin: float,
        flags: tuple[str, ...],
    ):
        trunc = pi_hat_truncated
        if any(v < -1e-12 or v > 1.0 + 1e-12 for v in trunc):
            raise ValidationError("BAD_ESTIMATE", f"truncated estimate off the simplex: {trunc}")
        if abs(math.fsum(trunc) - 1.0) > 1e-9:
            raise ValidationError("BAD_ESTIMATE", f"truncated estimate does not sum to 1: {trunc}")
        self.__dict__.update(
            mu_hat=mu_hat, pi_hat_raw=pi_hat_raw, pi_hat_truncated=pi_hat_truncated,
            var_mu_plugin=var_mu_plugin, flags=flags,
        )


class SurveyDefinition(_Record):
    """A parsed survey definition document: support, optional population, optional policy."""

    _fields = ("support", "population", "policy")


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
    return parse_survey_document(_read_json(path, "BAD_SURVEY"))


def _read_json(path, code: str):
    """The JSON document in the file at ``path``. A file that is not UTF-8,
    not JSON, nested past the recursion limit or holding an integer past
    Python's digit limit is refused with ``code``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        except (ValueError, RecursionError) as exc:
            raise ValidationError(code, f"{path}: not valid JSON ({exc})") from None


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
