import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from elastic_lens.convexity import (ConvexityReport, Foliation,
                                    _sample_foliation, check_foliation,
                                    check_hwz, check_plane_foliation,
                                    conformal_second_fundamental_form)
from elastic_lens.errors import PreconditionError
from elastic_lens.model_core import (BoxDomain, ConstantField, Cubic, DepthField,
                                     DiskDomain, RadialField, load_model)


def test_hwz_passes_for_decreasing_speed(linear_radial_speed):
    report = check_hwz(linear_radial_speed, 0.1, 0.99)
    assert report.strictly_convex
    assert report.margin > 0.0
    assert report.witness is None


def test_hwz_exact_margin_linear_profile(linear_radial_speed):
    # d/dr (r/c) = (c - r c') / c^2 = (2 - r + r) / (2 - r)^2 = 2/(2-r)^2,
    # increasing in r, so the minimum sits at the smallest sampled radius
    report = check_hwz(linear_radial_speed, 0.1, 0.9)
    assert report.margin == pytest.approx(2.0 / (2.0 - 0.1) ** 2, rel=1e-9)


def test_hwz_violation_reports_first_witness():
    # c = 1/(2 - r): r/c = r(2 - r) peaks at r = 1, spheres beyond are
    # concave; the first violating sample in scan order is the witness
    f = RadialField(func=lambda r: 1.0 / (2.0 - r),
                    dfunc=lambda r: 1.0 / (2.0 - r) ** 2, r_max=1.8)
    report = check_hwz(f, 0.5, 1.5)
    assert report.verdict == "violated"
    assert report.witness is not None
    assert report.witness["leaf"] > 1.0
    assert report.witness["value"] < 0.0


def test_hwz_flat_for_conical_speed():
    # c = |x|: r/c is constant, spheres are exactly flat in the conformal
    # metric; the verdict reports flatness, not a violation
    f = RadialField(func=lambda r: r, dfunc=lambda r: 1.0, r_max=4.0)
    report = check_hwz(f, 0.5, 2.0)
    assert report.verdict == "flat within tolerance"
    assert abs(report.margin) < 1e-12


def test_hwz_notes_a_sampled_verdict_on_callable_and_non_radial_fields(linear_radial_speed):
    # the spline's bends make the verdict exact on a profile-built field only
    assert check_hwz(linear_radial_speed, 0.1, 0.99).notes == []
    callable_field = RadialField(func=lambda r: 2.0 - r, dfunc=lambda r: -1.0, r_max=1.2)
    for f in (callable_field, ConstantField(1.0, dim=2)):
        report = check_hwz(f, 0.1, 0.99)
        assert report.strictly_convex
        assert report.notes == ["verdict sampled on 32 spheres of 64 points each; it is "
                                "exact only on a field built from a radial profile"]


@example(c0=2.386, g=0.572, r0=0.658, w=0.027, bump=0.076)   # -0.22 between two leaves
@given(c0=st.floats(1.5, 2.5), g=st.floats(0.0, 1.0), r0=st.floats(0.1, 0.9),
       w=st.floats(0.002, 0.03), bump=st.floats(0.0, 0.1))
def test_hwz_verdict_on_a_spline_with_a_thin_bump_matches_a_dense_scan(c0, g, r0, w, bump):
    # c = c0 - g r (c - r c' = c0 > 0) with a bump at r0 between its two nodes
    # r0 -+ w: the rising side's c - r c' may dip below 0 on a band narrower
    # than the spacing of the check's 32 leaves
    r = np.array([0.0, r0 - w, r0, r0 + w, 1.0, 1.2])
    speeds = c0 - g * r + bump * (r == r0)
    scan = np.linspace(1e-3, 1.0, 200_001)
    c, dc = Cubic(r, speeds).eval(scan)
    least = np.min(c - scan * dc)
    # the spline rings, at times below 0; a scan at |least| <= 1e-6 may miss the sign
    assume(np.all(c > 0) and abs(least) > 1e-6)
    f = RadialField(profile=np.stack((r, speeds), axis=1))
    assert check_hwz(f, 1e-3, 1.0).strictly_convex == (least > 0)


def test_hwz_input_validation(linear_radial_speed):
    with pytest.raises(PreconditionError):
        check_hwz(linear_radial_speed, 0.9, 0.1)


def test_plane_samples_fill_the_middle_90_percent_of_the_bounds():
    f = ConstantField(1.0, bounds=BoxDomain((2.0, -1.0), (3.0, 0.5)))
    s = _sample_foliation(f, Foliation("planes", (2.1, 2.9), axis=0), None, (8, 64, 1))
    u = (s.points[:, 1] - (-1.0)) / 1.5
    assert np.all((u >= 0.05 - 1e-12) & (u <= 0.95 + 1e-12))


def test_plane_samples_of_a_box_model_lie_in_its_domain():
    lam = {"kind": "linear", "a": 1.0, "b": [0.5, 0.0]}
    model = load_model({"domain": {"shape": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                        "material": {"lambda": lam, "mu": lam, "rho": 1.0}})
    fol = Foliation("planes", (0.01, 0.99), axis=0, orientation=-1)
    s = _sample_foliation(model.lens_speed(), fol, None, (32, 64, 1))
    assert len(s.points) == 32 * 64
    assert np.all(model.domain.signed(s.points) <= 0.0)


def test_plane_foliation_increasing_depth_speed():
    f = DepthField(profile=[(0.0, 1.0), (2.0, 3.0)], dim=2)
    report = check_plane_foliation(f, 1, 0.1, 1.9)
    assert report.strictly_convex


def test_plane_foliation_constant_speed_is_flat():
    report = check_plane_foliation(ConstantField(1.0, dim=2), 0, 0.1, 0.9)
    assert report.verdict == "flat within tolerance"


def test_report_dict_shape(linear_radial_speed):
    report = check_hwz(linear_radial_speed, 0.2, 0.8)
    # the order `check-foliation` prints; the (leaf, minimum) pairs as JSON arrays
    doc = json.loads(json.dumps(asdict(report)))
    assert list(doc) == ["verdict", "margin", "leaf_minima", "witness", "samples", "notes"]
    assert doc["leaf_minima"] == [list(m) for m in report.leaf_minima]


def test_conformal_form_constant_speed_keeps_euclidean_value():
    f = ConstantField(2.0, dim=2)
    val = conformal_second_fundamental_form(f, (1.0, 0.0), (0.0, 1.0),
                                            (1.0, 0.0), ambient_form=1.0)
    assert val == pytest.approx(1.0)


def test_conformal_form_requires_orthonormal_frame():
    f = ConstantField(1.0, dim=2)
    with pytest.raises(PreconditionError):
        conformal_second_fundamental_form(f, (1.0, 0.0), (1.0, 0.0),
                                          (1.0, 0.0), ambient_form=1.0)


def test_general_foliation_spheres_matches_hwz(linear_radial_speed):
    domain = DiskDomain(1.0)
    fol = Foliation(kind="spheres", params=(0.2, 0.9))
    report = check_foliation(linear_radial_speed, fol, domain)
    assert report.strictly_convex


def test_kappa_foliation_matches_spheres(linear_radial_speed):
    # kappa = |x|^2 with no derivatives given: finite-difference gradient and
    # Hessian, leaves found by bisection; its leaves are the spheres again
    domain = DiskDomain(1.0)
    spheres = check_foliation(linear_radial_speed,
                              Foliation(kind="spheres", params=(0.2, 0.9)), domain)
    kappa = check_foliation(linear_radial_speed,
                            Foliation(kind="kappa", params=(0.04, 0.81),
                                      kappa=lambda X: np.sum(X * X, axis=1)),
                            domain)
    assert kappa.verdict == spheres.verdict == "strictly convex"
    assert kappa.margin == pytest.approx(spheres.margin, abs=1e-6)


def test_kappa_foliation_notes_a_zero_leaf_inside_the_domain(linear_radial_speed):
    # kappa = |x|^2 - 1/4: the first leaf, q = 0, is the circle r = 1/2
    report = check_foliation(linear_radial_speed,
                             Foliation(kind="kappa", params=(0.0, 0.56),
                                       kappa=lambda X: np.sum(X * X, axis=1) - 0.25),
                             DiskDomain(1.0))
    assert report.notes[-1] == "zero leaf has samples strictly inside the domain"


def test_general_foliation_3d_conical_speed_is_flat():
    # c = |x| makes every sphere flat, along each of the 3D tangent directions
    f = RadialField(func=lambda r: r, dfunc=lambda r: 1.0, r_max=4.0, dim=3)
    report = check_foliation(f, Foliation(kind="spheres", params=(0.5, 2.0)),
                             DiskDomain(3.0, dim=3))
    assert report.verdict == "flat within tolerance"
    assert abs(report.margin) < 1e-10
    assert report.samples["directions"] == 16


@pytest.mark.parametrize("dim", [2, 3])
def test_engine_form_matches_conformal_form_reference(dim):
    f = RadialField(profile=[(0.0, 2.0), (0.5, 1.5), (1.0, 1.0), (1.2, 0.8)], dim=dim)
    s = _sample_foliation(f, Foliation(kind="spheres", params=(0.2, 0.9)), None, (4, 8, 3))
    for n in (0, 13, 31):
        x = s.points[n]
        r = np.linalg.norm(x)
        for k, t in enumerate(s.tangents[n]):
            ref = conformal_second_fundamental_form(f, x, t, x / r, ambient_form=1.0 / r)
            assert s.form[n, k] == pytest.approx(ref, abs=1e-12)


def test_plane_samples_spread_over_both_transverse_axes_in_3d():
    # the R2 sequence: every cell of a 4 x 4 grid over the middle 90 % holds 2 to 6
    # of the 64 points, and every leaf holds the same points
    f = ConstantField(1.0, bounds=BoxDomain((0.0, 0.0, 0.0), (1.0, 2.0, 1.0)), dim=3)
    s = _sample_foliation(f, Foliation("planes", (0.1, 0.9), axis=1), None, (2, 64, 1))
    u = (s.points[:64, [0, 2]] - 0.05) / 0.9
    counts = np.histogram2d(u[:, 0], u[:, 1], bins=4, range=[[0, 1], [0, 1]])[0]
    assert counts.min() >= 2 and counts.max() <= 6
    assert np.array_equal(s.points[64:, [0, 2]], s.points[:64, [0, 2]])


def test_check_foliation_refuses_leaves_outside_the_domain():
    speed = ConstantField(1.0, bounds=BoxDomain.cube(4.0))
    with pytest.raises(PreconditionError, match="no foliation samples fell inside the domain"):
        check_foliation(speed, Foliation("spheres", (2.0, 3.0)), DiskDomain(1.0))
