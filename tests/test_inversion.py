import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elastic_lens.errors import (DataInconsistencyError, FoliationError,
                                 IllPosedInputError, InversionError,
                                 PreconditionError)
from elastic_lens.inversion import (DepthProfile, RadialProfile,
                                    TravelTimeCurve, forward_layered_times,
                                    forward_travel_times, herglotz_invert,
                                    invert_both_speeds, layer_strip_invert)
from elastic_lens.model_core import ConstantField, RadialField


# ---------------------------------------------------------------------------
# Travel-time curves
# ---------------------------------------------------------------------------


def constant_speed_curve(c=1.0, R=1.0, n=24):
    # analytic chord geometry: Delta = 2 arcsin(chord / 2R) wrapped as
    # T(Delta) = (2R/c) sin(Delta/2)
    delta = np.linspace(0.15, 2.6, n)
    time = (2.0 * R / c) * np.sin(delta / 2.0)
    return TravelTimeCurve(delta, time, R=R)


def test_curve_rejects_convex_times():
    delta = np.linspace(0.1, 1.0, 6)
    time = delta ** 2          # convex: ray parameter increases
    with pytest.raises(IllPosedInputError) as err:
        TravelTimeCurve(delta, time, R=1.0)
    assert err.value.violation is not None


def test_curve_rejects_nonmonotone_delta():
    with pytest.raises(PreconditionError):
        TravelTimeCurve([0.2, 0.1, 0.3], [0.1, 0.2, 0.3], R=1.0)


def test_ray_parameters_are_interval_secants():
    curve = constant_speed_curve()
    dm, p = curve.ray_parameters()
    assert len(dm) == len(curve.delta)
    assert np.all(np.diff(p) < 0)


# ---------------------------------------------------------------------------
# Radial forward model and Herglotz inversion
# ---------------------------------------------------------------------------


def test_forward_times_constant_speed_match_chords():
    speed = ConstantField(1.0, dim=2)
    curve = forward_travel_times(speed, 1.0, np.linspace(0.1, 1.45, 12),
                                 dt=5e-4)
    chord_time = 2.0 * np.sin(curve.delta / 2.0)
    assert np.max(np.abs(curve.time - chord_time)) < 1e-6


def test_forward_times_rejects_nonconvex_foliation():
    bad = RadialField(func=lambda r: 1.0 / (2.0 - r),
                      dfunc=lambda r: 1.0 / (2.0 - r) ** 2, r_max=1.2)
    with pytest.raises(FoliationError):
        forward_travel_times(bad, 1.0, np.linspace(0.1, 1.4, 8))


def test_herglotz_constant_speed():
    prof = herglotz_invert(constant_speed_curve(c=1.0, n=24))
    assert np.max(np.abs(prof.c - 1.0)) < 1e-3


def test_herglotz_linear_profile_roundtrip(linear_radial_speed):
    angles = np.linspace(0.08, 1.5, 48)
    curve = forward_travel_times(linear_radial_speed, 1.0, angles, dt=1e-3)
    prof = herglotz_invert(curve)
    truth = 2.0 - prof.r
    rel = np.abs(prof.c - truth) / truth
    assert np.max(rel) < 0.005


def test_profile_speed_field_roundtrip():
    prof = RadialProfile(np.linspace(0.2, 1.0, 9),
                         2.0 - np.linspace(0.2, 1.0, 9))
    f = prof.speed_field()
    assert f.value((0.6, 0.0)) == pytest.approx(1.4, rel=1e-9)


# ---------------------------------------------------------------------------
# Layered forward model and layer stripping
# ---------------------------------------------------------------------------


def test_forward_layered_ordered_by_penetration():
    prof = DepthProfile([0.0, 1.0], [1.0, 2.0])
    p = 1.0 / np.linspace(1.1, 1.9, 7)
    X, t = forward_layered_times(prof, p)
    assert np.all(np.diff(t) > 0)          # deeper rays take longer
    assert np.all(X > 0)


def test_forward_layered_requires_turning_rays():
    prof = DepthProfile([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(InversionError):
        forward_layered_times(prof, [1.0 / 2.5])   # turns below the profile


def test_layer_strip_homogeneous_exact():
    d = np.linspace(0.4, 2.0, 9)
    prof = layer_strip_invert(d, d / 1.7)
    assert np.allclose(prof.c, 1.7, rtol=1e-9)


def test_layer_strip_linear_gradient_roundtrip():
    prof = DepthProfile([0.0, 2.0], [1.0, 1.0 + 0.5 * 2.0])
    p = 1.0 / np.linspace(1.05, 1.95, 40)
    X, t = forward_layered_times(prof, p)
    rec = layer_strip_invert(X, t)
    zq = np.linspace(0.05, min(rec.z[-1], 1.6), 40)
    rel = np.abs(rec(zq) - prof(zq)) / prof(zq)
    assert np.max(rel) < 0.02


def test_layer_strip_gradient_jump_roundtrip():
    prof = DepthProfile([0.0, 0.5, 2.0], [1.0, 1.2, 2.4])
    p = 1.0 / np.linspace(1.05, 2.3, 40)
    X, t = forward_layered_times(prof, p)
    rec = layer_strip_invert(X, t)
    zq = np.linspace(0.05, min(rec.z[-1], 1.4), 50)
    rel = np.abs(rec(zq) - prof(zq)) / prof(zq)
    assert np.max(rel) < 0.03


def test_layer_strip_detects_low_velocity_zone():
    # all ray parameters equal-or-increasing cannot happen for turning rays
    # in an increasing profile; a hidden low-velocity zone shows up as a
    # persistent failure to fit deeper samples
    X = np.array([0.5, 1.0, 1.5, 2.0])
    t = np.array([0.50, 1.01, 1.55, 2.12])    # slopes increase with offset
    with pytest.raises(IllPosedInputError) as err:
        layer_strip_invert(X, t)
    assert err.value.depth_band is not None


@st.composite
def concave_layered_profiles(draw):
    """3-8 nodes from c = 1 at the surface, thicknesses in [0.05, 0.3] and
    gradients in [0.2, 3.0] that do not increase with depth (no triplication)."""
    n = draw(st.integers(3, 8))
    dz = draw(st.lists(st.floats(0.05, 0.3), min_size=n - 1, max_size=n - 1))
    grad = sorted(draw(st.lists(st.floats(0.2, 3.0), min_size=n - 1,
                                max_size=n - 1)), reverse=True)
    return DepthProfile(np.concatenate(([0.0], np.cumsum(dz))),
                        np.concatenate(([1.0], 1.0 + np.cumsum(np.multiply(grad, dz)))))


def strip_forward_times(prof, n_rays):
    """layer_strip_invert on the times of n_rays rays turning uniformly in c."""
    c_turn = np.linspace(1.001 * prof.c[0], 0.999 * prof.c[-1], n_rays)
    return layer_strip_invert(*forward_layered_times(prof, 1.0 / c_turn))


@given(prof=concave_layered_profiles())
def test_layer_strip_roundtrips_random_concave_profiles(prof):
    rec = strip_forward_times(prof, 40)
    truth = prof(rec.z)
    assert np.max(np.abs(rec.c - truth) / truth) < 0.01


@pytest.mark.xfail(raises=IllPosedInputError, strict=True,
                   reason="40 rays refuse this concave profile as a "
                          "low-velocity zone; 80 rays recover it within 0.32 %")
def test_layer_strip_recovers_steep_concave_profile_from_40_rays():
    prof = DepthProfile([0.0, 0.06, 0.53, 0.97, 1.36, 1.86, 2.3, 2.62, 2.65],
                        [1.0, 1.288, 3.121, 4.749, 5.997, 7.397, 8.585, 9.417, 9.471])
    rec = strip_forward_times(prof, 40)
    truth = prof(rec.z)
    assert np.max(np.abs(rec.c - truth) / truth) < 0.01


# ---------------------------------------------------------------------------
# Joint p/s inversion
# ---------------------------------------------------------------------------


def test_invert_both_homogeneous_exact():
    d = np.linspace(0.5, 1.5, 8)
    prof_p, prof_s = invert_both_speeds((d, d / math.sqrt(3.0)), (d, d / 1.0),
                                        mode="homogeneous")
    assert prof_p.c[0] == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert prof_s.c[0] == pytest.approx(1.0, rel=1e-12)


def test_invert_both_detects_swapped_modes():
    d = np.linspace(0.5, 1.5, 8)
    with pytest.raises(DataInconsistencyError):
        invert_both_speeds((d, d / 1.0), (d, d / math.sqrt(3.0)),
                           mode="homogeneous")


def test_invert_both_layered_pair():
    prof_p = DepthProfile([0.0, 2.0], [1.7, 1.7 + 0.6 * 2.0])
    prof_s = DepthProfile([0.0, 2.0], [1.0, 1.0 + 0.4 * 2.0])
    pp = 1.0 / np.linspace(1.8, 2.8, 30)
    ps = 1.0 / np.linspace(1.05, 1.7, 30)
    Xp, tp = forward_layered_times(prof_p, pp)
    Xs, ts = forward_layered_times(prof_s, ps)
    rp, rs = invert_both_speeds((Xp, tp), (Xs, ts), mode="layered")
    zq = np.linspace(0.05, 0.8, 20)
    assert np.max(np.abs(rp(zq) - prof_p(zq)) / prof_p(zq)) < 0.03
    assert np.max(np.abs(rs(zq) - prof_s(zq)) / prof_s(zq)) < 0.03
