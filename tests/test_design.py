"""Device design: inverting the privacy bounds for the efficiency-optimal p."""

import numpy as np
import pytest

from rrkit import Device, PolicyMode, PrivacyPolicy, SupportSpec, ValidationError
from rrkit.design import (
    DEFAULT_TABLE_MS,
    DEFAULT_TABLE_XIS,
    design_device,
    p0_all_stigmatizing,
    p0_nonstigmatizing,
    p0_table,
)
from rrkit.privacy import guaranteed_alpha_bound, guaranteed_beta_bound

# the canonical all-stigmatizing table: rows m = 3, 4, 5; columns xi = 0.1..0.4
CANONICAL_TABLE = {
    3: (0.1413, 0.2941, 0.4494, 0.5970),
    4: (0.1099, 0.2381, 0.3797, 0.5263),
    5: (0.0899, 0.2000, 0.3288, 0.4706),
}


def test_worked_example_all_stigmatizing():
    assert round(p0_all_stigmatizing(4, 0.1), 4) == 0.1099


def test_worked_example_subset():
    assert round(p0_nonstigmatizing(3, 0.10, 0.15), 4) == 0.1639


def test_hand_evaluated_entry():
    assert round(p0_all_stigmatizing(2, 0.2), 4) == 0.3846


def test_canonical_table_entries():
    table = p0_table(DEFAULT_TABLE_MS, DEFAULT_TABLE_XIS)
    assert table.ms == (3, 4, 5)
    for m, row in zip(table.ms, table.p0):
        assert row == CANONICAL_TABLE[m]


def test_table_csv_render_is_stable():
    table = p0_table((3, 4, 5), (0.1, 0.2, 0.3, 0.4))
    expected = (
        "m,0.1,0.2,0.3,0.4\n"
        "3,0.1413,0.2941,0.4494,0.5970\n"
        "4,0.1099,0.2381,0.3797,0.5263\n"
        "5,0.0899,0.2000,0.3288,0.4706\n"
    )
    assert table.to_csv() == expected
    assert table.to_csv() == p0_table((3, 4, 5), (0.1, 0.2, 0.3, 0.4)).to_csv()


def test_table_json_shape():
    doc = p0_table((2,), (0.2,)).to_json_dict()
    assert doc == {"xi": [0.2], "rows": [{"m": 2, "p0": [0.3846]}]}


def test_empty_grid_rejected():
    with pytest.raises(ValidationError) as e:
        p0_table((), (0.1,))
    assert e.value.code == "BAD_GRID"


@pytest.mark.parametrize("m", [3.7, 3.0, "4", True, 1, np.int64(1), None])
def test_table_rejects_the_m_that_p0_rejects(m):
    # the table once truncated 3.7 to m = 3 and parsed "4"
    with pytest.raises(ValidationError) as e:
        p0_table((3, m), (0.1,))
    assert e.value.code == "BAD_SUPPORT"


def test_table_accepts_numpy_integer_m_and_stores_ints():
    table = p0_table((np.int64(3), np.uint8(4)), (0.1, 0.2))
    assert table == p0_table((3, 4), (0.1, 0.2))
    assert [type(m) for m in table.ms] == [int, int]


# --- round trips through the guaranteed bounds -------------------------------


def test_alpha_design_round_trip_exact():
    for m in range(2, 8):
        for xi in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9):
            p0 = p0_all_stigmatizing(m, xi)
            assert 0 < p0 < 1
            assert guaranteed_alpha_bound(Device(p=p0, m=m)) == pytest.approx(xi, abs=1e-10)


def test_beta_design_round_trip_exact():
    for m in (2, 3, 4, 6):
        for c in (0.1, 0.3, 0.5, 0.9):
            for frac in (0.1, 0.5, 0.9):
                xi = c * frac
                p0 = p0_nonstigmatizing(m, xi, c)
                assert 0 < p0 < 1
                assert guaranteed_beta_bound(Device(p=p0, m=m), c) == pytest.approx(
                    xi, abs=1e-10
                )


# --- monotonicity of the design maps ------------------------------------------


def test_p0_all_stigmatizing_monotone():
    xis = [0.05 * k for k in range(1, 19)]
    for m in (2, 3, 4, 5):
        seq = [p0_all_stigmatizing(m, xi) for xi in xis]
        assert all(a < b for a, b in zip(seq, seq[1:]))  # looser xi, larger p allowed
    for xi in (0.1, 0.3, 0.5):
        seq = [p0_all_stigmatizing(m, xi) for m in range(2, 9)]
        assert all(a > b for a, b in zip(seq, seq[1:]))  # more values, stricter device


def test_p0_subset_monotone():
    c = 0.5
    xis = [0.05 * k for k in range(1, 10)]  # all below c
    seq = [p0_nonstigmatizing(3, xi, c) for xi in xis]
    assert all(a > b for a, b in zip(seq, seq[1:]))  # stricter floor, smaller p

    cs = [0.2, 0.3, 0.5, 0.7, 0.9]
    seq = [p0_nonstigmatizing(3, 0.1, c) for c in cs]
    assert all(a < b for a, b in zip(seq, seq[1:]))  # more prior mass, larger p allowed

    seq = [p0_nonstigmatizing(m, 0.1, 0.3) for m in range(2, 8)]
    assert all(a > b for a, b in zip(seq, seq[1:]))


# --- validation ----------------------------------------------------------------


def test_design_rejects_xi_not_below_c():
    with pytest.raises(ValidationError) as e:
        p0_nonstigmatizing(3, 0.2, 0.15)
    assert e.value.code == "XI_GE_C"


@pytest.mark.parametrize("xi", [0.0, 1.0, -0.1])
def test_design_rejects_bad_xi(xi):
    with pytest.raises(ValidationError) as e:
        p0_all_stigmatizing(3, xi)
    assert e.value.code == "XI_OUT_OF_RANGE"


def test_design_rejects_bad_m():
    with pytest.raises(ValidationError) as e:
        p0_all_stigmatizing(1, 0.1)
    assert e.value.code == "BAD_SUPPORT"


@pytest.mark.parametrize("m", [np.int64(3), np.int32(3), np.uint8(3)])
def test_design_accepts_numpy_integer_m(m):
    assert p0_all_stigmatizing(m, 0.1) == p0_all_stigmatizing(3, 0.1)
    assert p0_nonstigmatizing(m, 0.1, 0.15) == p0_nonstigmatizing(3, 0.1, 0.15)
    assert type(p0_all_stigmatizing(m, 0.1)) is float


@pytest.mark.parametrize("m", [True, 1, np.int64(1), 3.0, "3", None])
def test_design_rejects_bool_small_or_non_integer_m(m):
    for call in (lambda: p0_all_stigmatizing(m, 0.1), lambda: p0_nonstigmatizing(m, 0.1, 0.15)):
        with pytest.raises(ValidationError) as e:
            call()
        assert e.value.code == "BAD_SUPPORT"


@pytest.mark.parametrize("m", [2**53 + 1, 10**320])
def test_m_past_what_a_float_holds_is_bad_support(m):
    # 10**320 once raised OverflowError in the closed forms
    for call in (lambda: p0_all_stigmatizing(m, 0.1), lambda: p0_nonstigmatizing(m, 0.1, 0.15),
                 lambda: p0_table((m,), (0.1,)), lambda: Device(p=0.5, m=m)):
        with pytest.raises(ValidationError) as e:
            call()
        assert e.value.code == "BAD_SUPPORT"
    assert p0_all_stigmatizing(2**53, 0.1) > 0.0


# --- certificates ----------------------------------------------------------------


def test_design_device_all_stigmatizing_certificate():
    support = SupportSpec(values=(0, 1, 2, 3), stigma=(True,) * 4)
    policy = PrivacyPolicy(mode=PolicyMode.ALL_STIGMATIZING, xi=0.1)
    device, cert = design_device(policy, support)
    assert device.p == pytest.approx(p0_all_stigmatizing(4, 0.1))
    assert device.m == 4
    doc = cert.to_json_dict()
    assert set(doc) == {"p0", "mode", "xi", "c", "m", "t", "guarantee_statement"}
    assert doc["mode"] == "all_stigmatizing"
    assert doc["c"] is None
    assert doc["t"] == 0
    assert "0.109890" in doc["guarantee_statement"]


def test_design_device_subset_certificate():
    support = SupportSpec(values=(0, 1, 2), stigma=(False, True, True))
    policy = PrivacyPolicy(
        mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=0.15, nonstigmatizing=(0,)
    )
    device, cert = design_device(policy, support)
    assert round(device.p, 4) == 0.1639
    assert cert.t == 1
    assert cert.c == 0.15


def test_design_device_checks_mode_against_support():
    support = SupportSpec(values=(0, 1, 2), stigma=(False, True, True))
    policy = PrivacyPolicy(mode=PolicyMode.ALL_STIGMATIZING, xi=0.1)
    with pytest.raises(ValidationError) as e:
        design_device(policy, support)
    assert e.value.code == "MODE_MISMATCH"


def test_design_accepts_numpy_real_scalars():
    # the same types PrivacyPolicy accepts: routed through the model's number check
    xi32, c32 = np.float32(0.1), np.float32(0.15)
    assert p0_all_stigmatizing(3, xi32) == p0_all_stigmatizing(3, float(xi32))
    assert p0_nonstigmatizing(3, xi32, c32) == p0_nonstigmatizing(3, float(xi32), float(c32))
    assert isinstance(p0_nonstigmatizing(3, xi32, c32), float)
    assert p0_all_stigmatizing(3, np.float64(0.1)) == p0_all_stigmatizing(3, 0.1)


@pytest.mark.parametrize("bad", [np.float32(1.5), np.float32(np.nan), "x", "0.1", None])
def test_design_rejects_bad_numpy_or_non_numeric_xi_and_c(bad):
    for call in (lambda: p0_all_stigmatizing(3, bad), lambda: p0_table((3,), (bad,))):
        with pytest.raises(ValidationError) as e:
            call()
        assert e.value.code == "XI_OUT_OF_RANGE"
    with pytest.raises(ValidationError) as e:
        p0_nonstigmatizing(3, 0.1, bad)
    assert e.value.code == "C_OUT_OF_RANGE"
