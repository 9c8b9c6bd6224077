import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.signal import butter, sosfilt

from elastic_lens.elastic_sim import BoundarySource, ricker, simulate_dn
from elastic_lens.errors import PreconditionError
from elastic_lens.model_core import BoxDomain, ConstantField, ElasticMaterial
from elastic_lens.wavefield_analysis import (_highpass, _onset, cauchy_to_neumann,
                                             discrete_curl,
                                             discrete_divergence,
                                             extract_lens,
                                             neumann_to_cauchy,
                                             pick_first_arrival,
                                             project_modes, reference_onset)


# ---------------------------------------------------------------------------
# Mode projection
# ---------------------------------------------------------------------------


def plane_wave(n, h, kvec, longitudinal):
    xs = h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    phase = kvec[0] * X + kvec[1] * Y
    khat = np.asarray(kvec) / np.linalg.norm(kvec)
    pol = khat if longitudinal else np.array([-khat[1], khat[0]])
    u = np.empty((n, n, 2))
    u[:, :, 0] = pol[0] * np.cos(phase)
    u[:, :, 1] = pol[1] * np.cos(phase)
    return u


def interior(n, margin):
    sl = slice(margin, n - margin)
    return sl, sl


def test_projection_completeness_and_invariants():
    n, h = 128, 1.0 / 127
    rng = np.random.default_rng(3)
    u = rng.standard_normal((n, n, 2))
    m = project_modes(u, h)
    assert np.max(np.abs(m.p_part + m.s_part - u)) < 1e-8
    assert np.max(np.abs(discrete_divergence(m.s_part, h))) < 1e-8 * np.max(np.abs(u))
    assert np.max(np.abs(discrete_curl(m.p_part, h))) < 1e-8 * np.max(np.abs(u))


def test_projection_idempotent():
    n, h = 128, 1.0 / 127
    rng = np.random.default_rng(4)
    u = rng.standard_normal((n, n, 2))
    m = project_modes(u, h)
    m2 = project_modes(m.p_part, h)
    assert np.max(np.abs(m2.p_part - m.p_part)) < 1e-8


def test_plane_wave_leakage_small():
    n, h = 128, 1.0 / 127
    k = (2 * np.pi * 6, 2 * np.pi * 4)
    wavelength = 2 * np.pi / np.linalg.norm(k)
    m = int(np.ceil(2 * wavelength / h))     # two-wavelength boundary margin
    sl = interior(n, m)
    for longitudinal in (True, False):
        u = plane_wave(n, h, k, longitudinal)
        modes = project_modes(u, h)
        wrong = modes.s_part if longitudinal else modes.p_part
        leak = (np.max(np.abs(wrong[sl])) / np.max(np.abs(u[sl])))
        assert leak < 2e-3


# ---------------------------------------------------------------------------
# Arrival picking
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dt", [1.3 * 0.0025 / math.sqrt(3.0), 0.005],
                         ids=["A3", "coarse"])
def test_highpass_agrees_with_scipy_butterworth(dt):
    # the A3 source frequency and time step (1.3 h / c_p), and a coarser step;
    # a pulse on a slow background the filter must remove
    f0 = 20.0
    t = dt * np.arange(1801)
    x = ricker(t, f0, 0.1) + 0.3 * t + 0.05 * np.sin(np.pi * t)
    want = sosfilt(butter(4, f0 / 4, "highpass", fs=1.0 / dt, output="sos"), x)
    got = _highpass(x, dt, f0 / 4)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_pick_single_ricker_near_onset():
    f0, dt = 12.0, 1e-3
    t = np.arange(0.0, 2.0, dt)
    onset = 0.8
    sig = ricker(t - onset, f0, 1.5 / f0)
    pick = pick_first_arrival(sig, 0.05, f0, dt)
    assert pick is not None
    assert abs(pick - onset) < 1.5 / f0


def test_pick_zero_trace_is_none():
    assert pick_first_arrival(np.zeros(500), 0.05, 10.0, 1e-3) is None


def test_pick_first_of_two_pulses():
    f0, dt = 12.0, 1e-3
    t = np.arange(0.0, 3.0, dt)
    sig = 0.3 * ricker(t - 0.5, f0, 1.5 / f0) + 1.0 * ricker(t - 1.8, f0, 1.5 / f0)
    assert pick_first_arrival(sig, 0.05, f0, dt) < 1.0


def test_pick_amplitude_invariance():
    f0, dt = 12.0, 1e-3
    t = np.arange(0.0, 2.0, dt)
    sig = ricker(t - 0.7, f0, 1.5 / f0)
    a = pick_first_arrival(sig, 0.05, f0, dt)
    b = pick_first_arrival(1e-15 * sig, 0.05, f0, dt)
    assert a == pytest.approx(b, abs=1e-12)


def test_pick_requires_valid_threshold():
    with pytest.raises(PreconditionError):
        pick_first_arrival(np.ones(100), 0.0, 10.0, 1e-3)
    with pytest.raises(PreconditionError, match="eta"):
        pick_first_arrival(np.ones(100), 1.5, 10.0, 1e-3)
    with pytest.raises(PreconditionError, match="empty"):
        pick_first_arrival(np.zeros(0), 0.05, 10.0, 1e-3)


def test_onset_interpolates_linearly_between_samples():
    t = 0.1 * np.arange(8)
    env = np.array([0.0, 0.0, 1.0, 3.0, 10.0, 4.0, 2.0, 0.0])
    # threshold 0.2 * 10 = 2 lies a half of the way from sample 2 to 3
    assert _onset(env, t, 0.2, 0, 8) == pytest.approx(0.25, abs=1e-15)
    # a sample exactly at the threshold is the crossing itself
    assert _onset(env, t, 0.1, 0, 8) == pytest.approx(0.2, abs=1e-15)
    # the span [5, 8) has maximum 4 and opens above 0.2 * 4: its start
    assert _onset(env, t, 0.2, 5, 8) == t[5]
    # zero on the span, or an empty span: no onset
    assert _onset(env, t, 0.2, 7, 8) is None
    assert _onset(env, t, 0.2, 0, 2) is None
    assert _onset(env, t, 0.2, 4, 4) is None


# ---------------------------------------------------------------------------
# Lens extraction on synthetic traces
# ---------------------------------------------------------------------------


def make_trace(arrivals, amps, f0, dt, T):
    t = np.arange(0.0, T, dt)
    sig = sum(a * ricker(t - tt, f0, 1.5 / f0) for tt, a in zip(arrivals, amps))
    return np.column_stack([sig, 0.3 * sig])[None]


def test_extract_lens_matches_synthetic_arrivals():
    f0, dt = 15.0, 5e-4
    src = BoundarySource(edge="left", center=0.5, width=0.1, f0=f0,
                         polarization=(1.0, 0.0))
    ell_p, ell_s = 0.6, 1.1
    # each arrival replays the delayed source pulse shifted by the travel
    # time, exactly the structure whose picker bias reference_onset cancels
    trace = make_trace((ell_p, ell_s), (1.0, 0.7), f0, dt, 2.0)
    recs = extract_lens(trace, dt, src, [(ell_p, ell_s)], eta=0.05)
    rec = recs[0]
    assert rec.rel_err_p < 0.01
    assert rec.rel_err_s < 0.01
    assert "mode-order-violation" not in rec.flags
    # swapped predictions pick the S arrival as P and the P arrival as S
    swapped, = extract_lens(trace, dt, src, [(ell_s, ell_p)], eta=0.05)
    assert swapped.t_p > swapped.t_s and swapped.flags == ["mode-order-violation"]


def test_window_picks_do_not_depend_on_the_window_edge():
    # the S arrival is broader than the source pulse, so its envelope still
    # rises where its window ends, as on the acceptance traces; moving both
    # predictions, and so the window ends, by 1 or 3 samples must leave the
    # picks where they are
    f0, dt = 15.0, 5e-4
    src = BoundarySource(edge="left", center=0.5, width=0.1, f0=f0,
                         polarization=(1.0, 0.0))
    t = np.arange(0.0, 2.0, dt)
    sig = ricker(t - 0.6, f0, 1.5 / f0) + 0.7 * ricker(t - 1.1, f0 / 1.6, 2.4 / f0)
    trace = np.column_stack([sig, 0.3 * sig])[None]

    def picks(k):
        rec, = extract_lens(trace, dt, src, [(0.6 + k * dt, 1.1 + k * dt)], eta=0.05)
        assert rec.flags == []
        return rec.t_p, rec.t_s

    base = picks(0)
    for k in (-3, -1, 1, 3):
        assert picks(k) == pytest.approx(base, abs=1e-12)


def test_extract_lens_flags_a_peak_on_the_pulse_span_edge():
    # an S pulse so broad that its envelope peaks past the span 3/f0 beyond
    # the predicted onset
    f0, dt = 15.0, 5e-4
    src = BoundarySource(edge="left", center=0.5, width=0.1, f0=f0,
                         polarization=(1.0, 0.0))
    t = np.arange(0.0, 2.0, dt)
    sig = ricker(t - 0.6, f0, 1.5 / f0) + ricker(t - 1.1, f0 / 3.0, 4.5 / f0)
    trace = np.column_stack([sig, 0.3 * sig])[None]
    rec, = extract_lens(trace, dt, src, [(0.6, 1.1)], eta=0.05)
    assert rec.flags == ["s-peak-on-edge"]


_CHAIN = dict(h=st.sampled_from([0.02, 0.025, 0.04, 0.05]), kappa=st.floats(1.5, 2.5),
              mu=st.floats(0.5, 2.0), rho=st.floats(0.5, 2.0), center=st.floats(0.1, 0.9),
              angle=st.floats(0.0, 2.0 * math.pi),
              receivers=st.lists(st.tuples(st.sampled_from(["right", "bottom", "top"]),
                                           st.floats(0.1, 0.9)), min_size=1, max_size=2))


def _simulate_and_extract(h, kappa, mu, rho, center, angle, receivers):
    """simulate -> extract on the unit box with constant lam, mu, rho and
    c_p = kappa c_s: a narrow source at `center` on the left edge, f0 such
    that the S wavelength spans 10 h, receivers (edge, position) and the
    straight-ray predictions.  Returns (rows, chords, c_p, c_s, f0, dt)."""
    cs = math.sqrt(mu / rho)
    cp = kappa * cs
    mat = ElasticMaterial(ConstantField(rho * cp * cp - 2.0 * mu), ConstantField(mu),
                          ConstantField(rho))
    f0 = cs / (10.0 * h)
    src = BoundarySource(edge="left", center=center, width=0.1, f0=f0,
                         polarization=(math.cos(angle), math.sin(angle)))
    points = [{"right": (1.0, s), "bottom": (s, 0.0), "top": (s, 1.0)}[e] for e, s in receivers]
    chords = [math.dist((0.0, center), p) for p in points]
    res = simulate_dn(mat, BoxDomain((0.0, 0.0), (1.0, 1.0)), src, points,
                      T=src.delay + max(chords) / cs + 3.0 / f0, h=h)
    rows = extract_lens(res.traces, res.dt, src, [(d / cp, d / cs) for d in chords],
                        eta=0.05)
    return rows, chords, cp, cs, f0, res.dt


@example(h=0.02, kappa=2.5, mu=1.0, rho=1.0, center=0.1, angle=0.0,
         receivers=[("right", 0.9), ("top", 0.9)])         # S - P gaps past 3/f0
@given(**_CHAIN)
def test_simulated_arrivals_come_in_mode_order(h, kappa, mu, rho, center, angle, receivers):
    rows, chords, cp, cs, f0, _ = _simulate_and_extract(h, kappa, mu, rho, center, angle,
                                                        receivers)
    for row, d in zip(rows, chords):
        assert row.t_p is not None and row.t_s is not None and row.t_p < row.t_s
        if d / cs - d / cp >= 3.0 / f0:
            assert not {"pick-collision", "mode-order-violation"} & set(row.flags)


@pytest.mark.xfail(strict=True, reason="P picks run ~3 samples late against the bare-pulse "
                   "calibration, and up to 13 samples early where the P pulse span is cut "
                   "at the S prediction (CHANGES.md FOUND)")
@settings(phases=[Phase.explicit, Phase.generate])     # a known failure: no shrinking
# a known failing draw: Hypothesis reports an explicit example's failure and
# stops there, writing no .hypothesis/patches file for a discovered one
@example(h=0.05, kappa=1.5, mu=0.5, rho=0.5, center=0.1, angle=0.0,
         receivers=[("right", 0.1)])
@given(**_CHAIN)
def test_simulated_p_pick_lies_within_three_samples_of_the_chord_time(h, kappa, mu, rho,
                                                                       center, angle,
                                                                       receivers):
    # t_p is the trace's onset less the reference onset: the pick against
    # chord / c_p plus the reference onset
    rows, chords, cp, _, _, dt = _simulate_and_extract(h, kappa, mu, rho, center, angle,
                                                       receivers)
    for row, d in zip(rows, chords):
        assert abs(row.t_p - d / cp) <= 3.0 * dt


def test_extract_lens_flags_ambiguous_predictions():
    f0, dt = 15.0, 5e-4
    src = BoundarySource(edge="left", center=0.5, width=0.1, f0=f0,
                         polarization=(1.0, 0.0))
    trace = make_trace((0.8,), (1.0,), f0, dt, 2.0)
    recs = extract_lens(trace, dt, src, [(0.70, 0.75)], eta=0.05)
    assert "ambiguous-prediction" in recs[0].flags


def test_extract_lens_reports_missing_pick():
    f0, dt = 15.0, 5e-4
    src = BoundarySource(edge="left", center=0.5, width=0.1, f0=f0,
                         polarization=(1.0, 0.0))
    recs = extract_lens(np.zeros((1, 2000, 2)), dt, src, [(0.6, 1.1)], eta=0.05)
    assert recs[0].t_p is None and recs[0].t_s is None
    assert "no-pick" in recs[0].flags


def test_extract_lens_alignment_check():
    f0, dt = 15.0, 5e-4
    src = BoundarySource(edge="left", center=0.5, width=0.1, f0=f0,
                         polarization=(1.0, 0.0))
    with pytest.raises(PreconditionError):
        extract_lens(np.zeros((0, 2000, 2)), dt, src, [(0.6, 1.1)])


def test_extract_lens_refuses_threshold_above_one():
    f0, dt = 15.0, 5e-4
    src = BoundarySource(edge="left", center=0.5, width=0.1, f0=f0,
                         polarization=(1.0, 0.0))
    trace = make_trace((0.6, 1.1), (1.0, 0.7), f0, dt, 2.0)
    with pytest.raises(PreconditionError, match="eta"):
        extract_lens(trace, dt, src, [(0.6, 1.1)], eta=2.0)


# ---------------------------------------------------------------------------
# Neumann-to-Cauchy on a flat surface
# ---------------------------------------------------------------------------


def quadratic_displacement_2d(xs):
    # u(x, z): components polynomial in the surface coordinate; on z = 0 we
    # prescribe u, d_z u and check the reconstruction from the traction
    u = np.empty((len(xs), 2))
    u[:, 0] = 1.0 + 0.5 * xs + 0.25 * xs ** 2
    u[:, 1] = 0.3 - 0.2 * xs + 0.1 * xs ** 2
    dz = np.empty((len(xs), 2))
    dz[:, 0] = 0.7 - 0.4 * xs
    dz[:, 1] = -0.1 + 0.6 * xs
    return u, dz


def test_neumann_cauchy_roundtrip_machine_precision():
    lam, mu = 1.3, 0.8
    xs = np.linspace(0.0, 1.0, 41)
    h = xs[1] - xs[0]
    u, dz = quadratic_displacement_2d(xs)
    nu = cauchy_to_neumann(u, dz, lam, mu, h)
    dz_rec = neumann_to_cauchy(u, nu, lam, mu, h)
    assert np.max(np.abs(dz_rec - dz)) <= 1e-12 * max(1.0, np.max(np.abs(dz)))
    nu_back = cauchy_to_neumann(u, dz_rec, lam, mu, h)
    assert np.max(np.abs(nu_back - nu)) <= 1e-12 * max(1.0, np.max(np.abs(nu)))


def test_neumann_cauchy_3d_surface():
    lam, mu = 2.0, 1.0
    n = 17
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u = np.stack([0.2 + 0.3 * X + 0.1 * Y ** 2,
                  0.5 * X * Y,
                  1.0 - 0.4 * X ** 2 + 0.2 * Y], axis=-1)
    dz = np.stack([0.1 + 0.2 * Y, 0.3 * X, -0.2 + 0.1 * X], axis=-1)
    h = xs[1] - xs[0]
    nu = cauchy_to_neumann(u, dz, lam, mu, h)
    dz_rec = neumann_to_cauchy(u, nu, lam, mu, h)
    assert np.max(np.abs(dz_rec - dz)) <= 1e-12


def test_neumann_to_cauchy_rejects_degenerate_moduli():
    xs = np.linspace(0.0, 1.0, 11)
    u, dz = quadratic_displacement_2d(xs)
    with pytest.raises(PreconditionError):
        neumann_to_cauchy(u, u, 1.0, 0.0, 0.1)
