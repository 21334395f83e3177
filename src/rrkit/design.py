"""Choosing the device parameter from a privacy requirement.

Both guaranteed bounds are strictly monotone in the device parameter p, so a
target threshold xi pins down the largest p that still meets it — the most
statistically efficient device the requirement admits. The two closed forms
here invert the corresponding worst-case bounds exactly.
"""

from __future__ import annotations

from .model import (
    Device,
    PolicyMode,
    PrivacyPolicy,
    SupportSpec,
    ValidationError,
    _Record,
    _support_size,
    _unit_interval,
    _xi_below_c,
    validate_policy,
)

DEFAULT_TABLE_MS = (3, 4, 5)
DEFAULT_TABLE_XIS = (0.1, 0.2, 0.3, 0.4)


def p0_all_stigmatizing(m: int, xi: float) -> float:
    """Largest p with guaranteed prior/posterior gap at most xi, all values sensitive.

    Inverts the worst-case gap: p0 = 1 / (1 + (m/xi) * ((1-xi)/2)^2).
    """
    m = _support_size(m)
    xi = _unit_interval(xi, "XI_OUT_OF_RANGE", "privacy threshold xi")
    return _device_p(1.0 / (1.0 + (m / xi) * ((1.0 - xi) / 2.0) ** 2), m, xi)


def p0_nonstigmatizing(m: int, xi: float, c: float) -> float:
    """Largest p guaranteeing posterior non-stigmatizing mass at least xi, when
    the prior non-stigmatizing mass is at least c. Needs xi < c: randomization
    can only dilute the prior mass, never amplify it."""
    m = _support_size(m)
    xi = _unit_interval(xi, "XI_OUT_OF_RANGE", "privacy threshold xi")
    c = _unit_interval(c, "C_OUT_OF_RANGE", "prior mass bound c")
    _xi_below_c(xi, c)
    a = (c - xi) / m
    return _device_p(a / (a + xi * (1.0 - c)), m, xi, c)


def _device_p(p0: float, m: int, xi: float, c: float | None = None) -> float:
    """A designed p0, refused with ``XI_OUT_OF_RANGE`` where it rounds to 0 or
    1, values no device can take: xi is then too close to 0 or 1 for m."""
    if not 0.0 < p0 < 1.0:
        given = f"m={m}, xi={xi!r}" + ("" if c is None else f", c={c!r}")
        raise ValidationError(
            "XI_OUT_OF_RANGE",
            f"the designed device parameter p0 rounds to {p0!r} at {given}; "
            "xi is too close to 0 or 1 for a device to meet it",
        )
    return p0


class DesignCertificate(_Record):
    """What a designed device promises, and under which mode/thresholds."""

    _fields = ("p0", "mode", "xi", "m", "c", "t", "guarantee_statement")
    _defaults = {"c": None, "t": 0, "guarantee_statement": ""}
    _json_fields = ("p0", "mode", "xi", "c", "m", "t", "guarantee_statement")


def design_device(policy: PrivacyPolicy, support: SupportSpec) -> tuple[Device, DesignCertificate]:
    """Most efficient device meeting ``policy`` on ``support``, with its certificate."""
    validate_policy(policy, support)
    cert = design_certificate(policy, support.m)
    return Device(p=cert.p0, m=cert.m), cert


def design_certificate(policy: PrivacyPolicy, m: int) -> DesignCertificate:
    """The certificate of the most efficient device meeting ``policy`` over m
    values, from m and the policy alone: p0 reads no support value, and
    :func:`design_device` checks the policy against a support's stigma flags."""
    m = _support_size(m)
    if policy.mode is PolicyMode.ALL_STIGMATIZING:
        p0 = p0_all_stigmatizing(m, policy.xi)
        statement = (
            f"For every population on {m} values, no response shifts any posterior "
            f"probability by more than {policy.xi:g} from its prior at p = {p0:.6f}."
        )
    else:
        p0 = p0_nonstigmatizing(m, policy.xi, policy.c)
        statement = (
            f"For every population on {m} values with at least {policy.c:g} prior mass on "
            f"the {policy.t} non-stigmatizing value(s), every response leaves posterior "
            f"non-stigmatizing mass at least {policy.xi:g} at p = {p0:.6f}."
        )
    # all-stigmatizing policies have no c and no index set
    return DesignCertificate(
        p0=p0, mode=policy.mode, xi=policy.xi, m=m, c=policy.c, t=policy.t or 0,
        guarantee_statement=statement,
    )


class DesignTable(_Record):
    """Grid of all-stigmatizing design parameters: one row per m, one column per
    xi, with ``p0[row][col]`` rounded to 4 decimals."""

    _fields = ("ms", "xis", "p0")

    def to_json_dict(self) -> dict:
        rows = [{"m": m, "p0": list(row)} for m, row in zip(self.ms, self.p0)]
        return {"xi": list(self.xis), "rows": rows}

    def to_csv(self) -> str:
        header = "m," + ",".join(f"{xi:g}" for xi in self.xis)
        lines = [header]
        for m, row in zip(self.ms, self.p0):
            lines.append(f"{m}," + ",".join(f"{v:.4f}" for v in row))
        return "\n".join(lines) + "\n"


def p0_table(
    ms: tuple[int, ...] = DEFAULT_TABLE_MS,
    xis: tuple[float, ...] = DEFAULT_TABLE_XIS,
) -> DesignTable:
    """All-stigmatizing p0 over a grid, rounded to 4 decimals for display."""
    ms = tuple(_support_size(m) for m in ms)
    xis = tuple(xis)
    if not ms or not xis:
        raise ValidationError("BAD_GRID", "table needs at least one m and one xi")
    xis = tuple(_unit_interval(xi, "XI_OUT_OF_RANGE", "privacy threshold xi") for xi in xis)
    rows = tuple(
        tuple(round(p0_all_stigmatizing(m, xi), 4) for xi in xis) for m in ms
    )
    return DesignTable(ms=ms, xis=xis, p0=rows)
