import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elastic_lens import elastic_sim
from elastic_lens.elastic_sim import (BoundarySource, MaterialGrid, bump,
                                      check_cfl, energy, receiver_nodes,
                                      ricker, sample_material, simulate_dn,
                                      stable_dt, WavefieldState)
from elastic_lens.errors import ConfigurationError, NumericalError
from elastic_lens.model_core import (EDGES, BoxDomain, ConstantField,
                                     ElasticMaterial, Grid2D, LinearField)


def test_ricker_vanishes_for_nonpositive_time():
    t = np.array([-1.0, -1e-12, 0.0])
    assert np.all(ricker(t, 10.0, 0.15) == 0.0)


def test_ricker_peak_at_delay():
    t = np.linspace(0.0, 0.4, 4001)
    w = ricker(t, 10.0, 0.15)
    assert t[np.argmax(w)] == pytest.approx(0.15, abs=1e-3)


def test_bump_compact_support_and_peak():
    s = np.linspace(0.0, 1.0, 101)
    b = bump(s, 0.5, 0.2)
    assert b[50] == pytest.approx(1.0)
    assert np.all(b[s <= 0.4] == 0.0)
    assert np.all(b[s >= 0.6] == 0.0)


def test_source_default_delay():
    src = BoundarySource(edge="left", center=0.5, width=0.1, f0=10.0,
                         polarization=(1.0, 0.0))
    assert src.delay == pytest.approx(0.15)


def test_cfl_guard(unit_material, unit_box):
    grid = Grid2D((0.0, 0.0), 0.05, 21, 21)
    mg = sample_material(unit_material, grid)
    dt_ok = stable_dt(mg)
    check_cfl(mg, dt_ok * 0.99)
    with pytest.raises(ConfigurationError):
        check_cfl(mg, dt_ok * 1.01)


_STABILITY_MATERIALS = {
    "unit": ElasticMaterial(*(ConstantField(1.0),) * 3),
    "linear": ElasticMaterial(LinearField(1.0, (0.2, 0.1)),
                              LinearField(0.8, (0.1, 0.1)),
                              LinearField(1.2, (-0.1, 0.1))),
    "near-fluid": ElasticMaterial(ConstantField(20.0), ConstantField(0.05),
                                  ConstantField(1.0)),
}


@pytest.mark.parametrize("material", list(_STABILITY_MATERIALS))
def test_default_dt_is_stable_and_the_derived_limit_holds(unit_box, monkeypatch,
                                                           material):
    # the scheme is stable for dt < sqrt(2) h / c_p,max (module docstring):
    # the default h / c_p,max stays bounded over a long run, and 1.5 h /
    # c_p,max, past the limit, blows up within a few blow-up checks
    mat = _STABILITY_MATERIALS[material]
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    res = simulate_dn(mat, unit_box, src, [(1.0, 0.5)], T=30.0, h=0.05)
    assert res.dt == stable_dt(sample_material(mat, res.grid))
    assert res.counters["dt_over_limit"] == pytest.approx(1.0 / math.sqrt(2.0))
    assert res.counters["max_u_over_pol"] < 1.3
    assert np.all(np.isfinite(res.traces[0].samples))
    monkeypatch.setattr(elastic_sim, "CFL_SAFETY", 1.5)
    with pytest.raises(NumericalError):
        simulate_dn(mat, unit_box, src, [(1.0, 0.5)], T=30.0, h=0.05)


def test_receiver_snapping_accepts_boundary_rejects_interior(unit_box):
    grid = Grid2D((0.0, 0.0), 0.1, 11, 11)
    nodes = receiver_nodes(unit_box, grid, [(1.0, 0.52)])
    edge, k, pos = nodes[0]
    assert edge == "right" and k == 5
    with pytest.raises(ConfigurationError):
        receiver_nodes(unit_box, grid, [(0.5, 0.5)])


def test_energy_stays_bounded_after_source_stops(unit_material, unit_box):
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)],
                      T=1.2, h=0.02, snapshot_times=(0.5, 0.8, 1.1))
    grid = res.grid
    mg = sample_material(unit_material, grid)
    e = [energy(snap, mg) for snap in res.snapshots]
    # Dirichlet walls trap the energy once the source is quiet (t > ~0.44);
    # the centered-difference functional wobbles a few percent per period,
    # so test boundedness rather than exact conservation
    assert max(e) <= min(e) * 1.15


def test_energy_accumulates_in_float64(unit_material, unit_box):
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)],
                      T=0.5, h=0.05, snapshot_times=(0.3,))
    s32 = replace(res.snapshots[0], u=res.snapshots[0].u.astype(np.float32),
                  u_prev=res.snapshots[0].u_prev.astype(np.float32))
    s64 = replace(s32, u=s32.u.astype(float), u_prev=s32.u_prev.astype(float))
    mg = sample_material(unit_material, res.grid)
    assert energy(s32, mg) == energy(s64, mg) > 0.0


@pytest.mark.parametrize("strain, v", [((0.3, -0.2), (0.0, 0.0)),
                                        ((0.0, 0.0), (0.4, 0.5)),
                                        ((0.3, -0.2), (0.4, 0.5))],
                         ids=["strain", "kinetic", "both"])
def test_energy_of_uniform_strain_and_velocity_is_closed_form(strain, v):
    # every difference, one-sided ones included, is exact on u = (a x, b y),
    # and u_prev = u - dt v gives the uniform velocity v
    lam, mu, rho, (a, b), h, nx, ny, dt = 2.0, 0.7, 1.3, strain, 0.05, 21, 17, 0.01
    grid = Grid2D((0.0, 0.0), h, nx, ny)
    X, Y = np.meshgrid(*grid.nodes(), indexing="ij")
    u = np.stack([a * X, b * Y], axis=-1)
    state = WavefieldState(u, u - dt * np.asarray(v), 0.0, grid, dt)
    mg = sample_material(ElasticMaterial(ConstantField(lam), ConstantField(mu),
                                         ConstantField(rho)), grid)
    strain_energy = 0.5 * (lam * (a + b) ** 2 + 2.0 * mu * (a * a + b * b))
    kinetic = 0.5 * rho * (v[0] ** 2 + v[1] ** 2)
    assert energy(state, mg) == pytest.approx((strain_energy + kinetic) * nx * ny * h * h,
                                              rel=1e-12)


def test_wavefield_is_float32_traces_and_dt_float64(unit_box):
    mat = _REFERENCE_MATERIALS["linear-lame"]
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    res = simulate_dn(mat, unit_box, src, [(1.0, 0.5)], T=0.3, h=0.05,
                      snapshot_times=(0.2,))
    assert res.snapshots[0].u.dtype == np.float32
    assert res.traces[0].samples.dtype == np.float64
    assert res.dt == stable_dt(sample_material(mat, res.grid))


def test_p_arrival_speed_oracle(unit_material, unit_box):
    # normal-polarization source straight across the unit box: the leading
    # edge travels at c_p = sqrt(3); coarse-grid pick within 6%
    from elastic_lens.wavefield_analysis import pick_first_arrival, reference_onset
    src = BoundarySource(edge="left", center=0.5, width=0.12, f0=10.0,
                         polarization=(1.0, 0.0))
    res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)],
                      T=0.9, h=0.01)
    t_ref = reference_onset(src, res.dt, 0.05)
    pick = pick_first_arrival(res.traces[0], 0.05, 10.0)
    assert pick is not None
    assert pick.time - t_ref == pytest.approx(1.0 / math.sqrt(3.0), rel=0.06)


def test_polarization_selects_mode_energy(unit_material, unit_box):
    # energy ratio in the p vs s pick windows flips with the polarization
    src_p = BoundarySource(edge="left", center=0.5, width=0.12, f0=10.0,
                           polarization=(1.0, 0.0))
    src_s = BoundarySource(edge="left", center=0.5, width=0.12, f0=10.0,
                           polarization=(0.0, 1.0))
    cp = math.sqrt(3.0)

    def window_energy(trace, t_center, half=0.12):
        t = trace.dt * np.arange(len(trace.samples))
        sel = (t >= t_center - half) & (t <= t_center + half)
        return float(np.sum(trace.samples[sel] ** 2))

    out = {}
    for tag, src in (("p", src_p), ("s", src_s)):
        res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)],
                          T=1.45, h=0.005)
        tr = res.traces[0]
        out[tag] = (window_energy(tr, 1.0 / cp + src.delay),
                    window_energy(tr, 1.0 + src.delay))
    assert out["p"][0] > 5.0 * out["p"][1]
    assert out["s"][1] > 5.0 * out["s"][0]


def test_simulation_is_deterministic(unit_material, unit_box):
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    kw = dict(T=0.5, h=0.02)
    a = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], **kw)
    b = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], **kw)
    assert np.array_equal(a.traces[0].samples, b.traces[0].samples)


def test_dirichlet_walls_are_zero_off_source(unit_material, unit_box):
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)],
                      T=0.6, h=0.02, snapshot_times=(0.55,))
    u = res.snapshots[0].u
    assert isinstance(res.snapshots[0], WavefieldState)
    assert np.all(u[-1, :, :] == 0.0)          # right edge
    assert np.all(u[:, 0, :] == 0.0)           # bottom edge
    assert np.all(u[:, -1, :] == 0.0)          # top edge


def test_simulate_requires_time_and_resolution(unit_material, unit_box):
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    with pytest.raises(ConfigurationError):
        simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.5,
                    h=0.02, dt=1.0)


def _reference_dn(material, domain, source, receivers, T, h, dt, dtype=np.float32,
                  physical=False):
    """The FD scheme written plainly over the full grid, on (nx, ny, 2)
    arrays of displacement and nodal material arrays of the given dtype,
    with the traces formed in float64.  By default it follows the folded
    order: undivided differences f[i+1] - f[i-1], one-sided 2 (f_p - f_q)
    at the ends; stresses (2 mu G) + lam div, times 2h; their undivided
    divergence times dt^2 / (4 h^2 rho); then + (2 u - u_prev).  In float32
    simulate_dn must reproduce its traces and final displacement bit for
    bit.  physical=True takes np.gradient's derivatives over h instead,
    and dt^2 / rho: the same scheme in physical units."""
    w = domain.widths
    grid = Grid2D(tuple(domain.lo), h, *(int(round(w[a] / h)) + 1 for a in (0, 1)))
    xs, ys = grid.nodes()
    X = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    lam, mu, rho = (f.eval(X)[0].reshape(len(xs), len(ys))
                    for f in (material.lam, material.mu, material.rho))
    scale = 1.0 if physical else 2.0 * h       # of a difference against the derivative
    coef = (dt * dt / (scale * scale * rho)).astype(dtype)[:, :, None]
    lam, mu = lam.astype(dtype), mu.astype(dtype)
    axis, side = EDGES[source.edge]
    patch = [slice(None)] * 2
    patch[axis] = -side
    prof, pol = source.profile((xs, ys)[1 - axis]), np.asarray(source.polarization)

    def walls(u, t):
        u[[0, -1]] = 0.0
        u[:, [0, -1]] = 0.0
        u[tuple(patch)] = np.outer(prof * float(source.pulse(t)), pol)

    def d(f, a):
        if physical:
            return np.gradient(f, h, axis=a)
        f = np.moveaxis(f, a, 0)
        g = np.concatenate([2.0 * (f[1:2] - f[:1]), f[2:] - f[:-2],
                            2.0 * (f[-1:] - f[-2:-1])])
        return np.moveaxis(g, 0, a)

    at = []
    for edge, k, _ in receiver_nodes(domain, grid, receivers):
        a, s = EDGES[edge]
        node, normal = [k, k], [0.0, 0.0]
        node[a], normal[a] = -s, 2.0 * s - 1.0
        at.append((tuple(node), normal))
    u, u_prev, t, traces = np.zeros((len(xs), len(ys), 2), dtype), 0.0, 0.0, []
    walls(u, t)
    for n in range(int(round(T / dt)) + 1):
        div = d(u[:, :, 0], 0) + d(u[:, :, 1], 1)
        sxx = 2.0 * mu * d(u[:, :, 0], 0) + lam * div
        syy = 2.0 * mu * d(u[:, :, 1], 1) + lam * div
        sxy = mu * (d(u[:, :, 0], 1) + d(u[:, :, 1], 0))
        # a float32 array over a Python float stays float32: upcast first
        sxx64, sxy64, syy64 = (s.astype(float) / scale for s in (sxx, sxy, syy))
        traces.append([(sxx64[i] * nx + sxy64[i] * ny, sxy64[i] * nx + syy64[i] * ny)
                       for i, (nx, ny) in at])
        if n == int(round(T / dt)):
            return np.array(traces).transpose(1, 0, 2), u
        acc = np.stack([d(sxx, 0) + d(sxy, 1), d(sxy, 0) + d(syy, 1)], axis=-1)
        u, u_prev = coef * acc + (2.0 * u - u_prev), u
        t += dt
        walls(u, t)


_REFERENCE_MATERIALS = {
    "unit": ElasticMaterial(*(ConstantField(1.0),) * 3),
    "constant": ElasticMaterial(ConstantField(2.0), ConstantField(0.7),
                                ConstantField(1.3)),
    "linear-lame": ElasticMaterial(LinearField(1.0, (0.5, -0.3)),
                                   LinearField(1.2, (-0.2, 0.4)),
                                   ConstantField(1.0)),
    "variable-rho": ElasticMaterial(LinearField(1.0, (0.5, 0.0)),
                                    ConstantField(0.8),
                                    LinearField(1.5, (-0.3, 0.6))),
    "linear-lame-rho": ElasticMaterial(LinearField(1.0, (0.5, -0.3)),
                                       LinearField(1.2, (-0.2, 0.4)),
                                       LinearField(1.5, (-0.3, 0.6))),
}


@pytest.mark.parametrize("pol", [(1.0, 0.0), (0.6, 0.8)], ids=["normal", "oblique"])
@pytest.mark.parametrize("material", list(_REFERENCE_MATERIALS))
def test_fd_kernel_matches_gradient_reference_bitwise(unit_box, material, pol):
    mat = _REFERENCE_MATERIALS[material]
    edge = "bottom" if material == "variable-rho" else "left"
    src = BoundarySource(edge=edge, center=0.45, width=0.3, f0=8.0,
                         polarization=pol)
    # a receiver on each edge, and the corners (1, 0) and (0, 1)
    receivers = [(1.0, 0.5), (0.3, 1.0), (0.6, 0.0), (1.0, 0.0), (0.0, 1.0)]
    res = simulate_dn(mat, unit_box, src, receivers, T=0.6, h=0.05,
                      snapshot_times=(0.6,))
    traces, u = _reference_dn(mat, unit_box, src, receivers, 0.6, 0.05, res.dt)
    assert np.array_equal(np.array([tr.samples for tr in res.traces]), traces)
    assert np.array_equal(res.snapshots[-1].u, u)
    assert np.abs(traces).max() > 0.0


@pytest.mark.parametrize("h", [0.05, 0.01])
@pytest.mark.parametrize("material", ["unit", "linear-lame"])
def test_float32_wavefield_tracks_float64_reference(unit_box, material, h):
    # round-off of the float32 wavefield against the float64 reference:
    # measured at most 1.2e-6 in relative L2 and 5e-8 s in the picks
    from elastic_lens.wavefield_analysis import pick_first_arrival
    mat = _REFERENCE_MATERIALS[material]
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    receivers = [(1.0, 0.5), (0.3, 1.0), (0.6, 0.0)]
    res = simulate_dn(mat, unit_box, src, receivers, T=0.9, h=h)
    ref, _ = _reference_dn(mat, unit_box, src, receivers, 0.9, h, res.dt, dtype=float,
                           physical=True)
    got = np.array([tr.samples for tr in res.traces])
    assert np.linalg.norm(got - ref) <= 1e-4 * np.linalg.norm(ref)
    for g, r in zip(got, ref):
        t_got, t_ref = (pick_first_arrival(x, 0.05, src.f0, res.dt).time for x in (g, r))
        assert abs(t_got - t_ref) <= 1e-6


def _force_strips(monkeypatch, n):
    """Run simulate_dn on n row strips, as on n cores with no node minimum."""
    monkeypatch.setattr(elastic_sim, "_MIN_NODES_PER_STRIP", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_row_strips_one_per_core_above_the_node_minimum(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # measured: two strips lose below ~120k nodes and win above ~150k, so
    # hetero_box (201 x 201) runs on one strip and fd_chain (401 x 961) on two
    assert elastic_sim._row_strips(201, 201) == [(0, 201)]
    assert elastic_sim._row_strips(401, 961) == [(0, 200), (200, 401)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(elastic_sim, "_MIN_NODES_PER_STRIP", 100)
    assert elastic_sim._row_strips(10, 19) == [(0, 10)]
    assert elastic_sim._row_strips(10, 20) == [(0, 5), (5, 10)]
    assert elastic_sim._row_strips(10, 100) == [(0, 3), (3, 6), (6, 10)]
    assert elastic_sim._row_strips(2, 1000) == [(0, 1), (1, 2)]     # no empty strip


@pytest.mark.parametrize("h", [0.05, 0.01])
@pytest.mark.parametrize("material", ["unit", "linear-lame"])
def test_row_strips_reproduce_one_strip_bitwise(unit_box, monkeypatch, material, h):
    # every split of the rows gives each node the same float32 operations,
    # a strip of a single wall row included
    mat = _REFERENCE_MATERIALS[material]
    src = BoundarySource(edge="left", center=0.45, width=0.3, f0=8.0,
                         polarization=(0.6, 0.8))
    receivers = [(1.0, 0.5), (0.3, 1.0), (0.6, 0.0), (1.0, 0.0), (0.0, 1.0)]

    def run():
        res = simulate_dn(mat, unit_box, src, receivers, T=0.6, h=h,
                          snapshot_times=(0.6,))
        traces = np.array([tr.samples for tr in res.traces])
        return res, traces, res.snapshots[-1].u

    one, traces, u = run()
    assert one.counters["threads"] == 1
    ref, ref_u = _reference_dn(mat, unit_box, src, receivers, 0.6, h, one.dt)
    assert np.array_equal(traces, ref) and np.array_equal(u, ref_u)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads often: a missed wait shows
    try:
        for n, strips in ((2, None), (3, None), (3, lambda nx, ny: [(0, 1), (1, nx - 1),
                                                                    (nx - 1, nx)])):
            _force_strips(monkeypatch, n)
            if strips is not None:
                monkeypatch.setattr(elastic_sim, "_row_strips", strips)
            res, got, got_u = run()
            assert res.counters["threads"] == n
            assert np.array_equal(got, traces) and np.array_equal(got_u, u)
    finally:
        sys.setswitchinterval(interval)


def test_strip_error_reaches_the_caller_and_leaves_no_thread(unit_material, unit_box,
                                                            monkeypatch):
    _force_strips(monkeypatch, 2)
    step = elastic_sim._Workspace.step

    def step_failing_off_main(self, *args):
        if threading.current_thread() is not threading.main_thread():
            raise NumericalError("strip failed")
        step(self, *args)

    monkeypatch.setattr(elastic_sim._Workspace, "step", step_failing_off_main)
    threads = threading.active_count()
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    # by T = 0.4 the source row 0 can reach the receiver row 20, so strips run
    with pytest.raises(NumericalError, match="strip failed"):
        simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.4, h=0.05)
    assert threading.active_count() == threads


@example(edge="left", center=0.525, width=0.02, angle=1.0, h=0.05,
         material="constant", strips=3)          # the bump holds no node
@given(edge=st.sampled_from(list(EDGES)), center=st.floats(0.2, 0.8),
       width=st.floats(0.01, 0.4), angle=st.floats(0.0, 2.0 * math.pi),
       h=st.sampled_from([0.02, 0.025, 0.04, 0.05]),
       material=st.sampled_from(["constant", "linear-lame-rho"]),
       strips=st.integers(1, 3))
def test_row_window_is_invisible(edge, center, width, angle, h, material, strips):
    # step n runs only on the rows within 2 n + 2 of the driven ones; the
    # full-grid reference must not see the difference, in any strips
    mat, unit_box = _REFERENCE_MATERIALS[material], BoxDomain((0.0, 0.0), (1.0, 1.0))
    src = BoundarySource(edge=edge, center=center, width=width, f0=8.0,
                         polarization=(math.cos(angle), math.sin(angle)))
    receivers = [(1.0, 0.5), (0.3, 1.0), (0.6, 0.0), (0.0, 0.4)]
    nx = int(round(1.0 / h)) + 1
    dt = stable_dt(sample_material(mat, Grid2D((0.0, 0.0), h, nx, nx)))
    n = nx // 4                                  # the front is 2 n rows out
    # the rows of nonzero patch nodes: the profile's support along a bottom
    # or top edge, the one wall row of a left or right edge
    axis, side = EDGES[edge]
    prof = src.profile(np.linspace(0.0, 1.0, nx))
    driven = np.flatnonzero(prof) if axis == 1 else np.flatnonzero([prof.any()]) + (nx - 1) * side
    with pytest.MonkeyPatch.context() as mp:
        _force_strips(mp, strips)
        res = simulate_dn(mat, unit_box, src, receivers, T=0.5, h=h, dt=dt,
                          snapshot_times=(n * dt, 0.5))
    traces, u = _reference_dn(mat, unit_box, src, receivers, 0.5, h, dt)
    assert np.array_equal(np.array([tr.samples for tr in res.traces]), traces)
    assert np.array_equal(res.snapshots[-1].u, u)
    rows = np.flatnonzero(np.any(res.snapshots[0].u != 0.0, axis=(1, 2)))
    if driven.size:
        assert driven.min() - 2 * n <= rows.min() and rows.max() < driven.max() + 1 + 2 * n
        assert np.abs(u).max() > 0.0
    else:
        assert rows.size == 0 and not np.any(u) and not np.any(traces)


def _edge_point(edge, s):
    """The point s along the given edge of the unit box."""
    axis, side = EDGES[edge]
    p = [s, s]
    p[axis] = float(side)
    return tuple(p)


@given(edge=st.sampled_from(list(EDGES)), center=st.floats(0.2, 0.8),
       width=st.floats(0.05, 0.4), angle=st.floats(0.0, 2.0 * math.pi),
       receivers=st.lists(st.tuples(st.sampled_from(list(EDGES)), st.floats(0.05, 0.95),
                                    st.floats(0.05, 0.95)),
                          min_size=1, max_size=2, unique_by=lambda r: r[0]),
       T=st.floats(0.2, 0.8), snapshot=st.none() | st.floats(0.0, 1.0),
       h=st.sampled_from([0.02, 0.025, 0.04, 0.05]),
       material=st.sampled_from(["constant", "linear-lame-rho"]),
       strips=st.integers(1, 3))
def test_receiver_cone_is_invisible(edge, center, width, angle, receivers, T, snapshot,
                                    h, material, strips):
    # once no snapshot is pending, step n runs only on the rows within
    # 2 (N - n) of the receivers'; the full-grid reference must see the
    # same traces and snapshot, in any strips.  Two receivers per edge
    # make the receiver rows span a range on a bottom or top edge.
    mat, unit_box = _REFERENCE_MATERIALS[material], BoxDomain((0.0, 0.0), (1.0, 1.0))
    src = BoundarySource(edge=edge, center=center, width=width, f0=8.0,
                         polarization=(math.cos(angle), math.sin(angle)))
    points = [_edge_point(e, s) for e, s1, s2 in receivers for s in (s1, s2)]
    nx = int(round(1.0 / h)) + 1
    dt = stable_dt(sample_material(mat, Grid2D((0.0, 0.0), h, nx, nx)))
    times = () if snapshot is None else (round(snapshot * round(T / dt)) * dt,)
    with pytest.MonkeyPatch.context() as mp:
        _force_strips(mp, strips)
        res = simulate_dn(mat, unit_box, src, points, T=T, h=h, dt=dt, snapshot_times=times)
    traces, _ = _reference_dn(mat, unit_box, src, points, T, h, dt)
    assert np.array_equal(np.array([tr.samples for tr in res.traces]), traces)
    if times:
        _, u = _reference_dn(mat, unit_box, src, points, times[0], h, dt)
        assert np.array_equal(res.snapshots[0].u, u)


def test_receivers_out_of_reach_get_zero_traces_and_no_strip_work(unit_material, unit_box,
                                                                  monkeypatch):
    # the left source drives row 0 and the receiver sits on row 20: in the
    # 7 steps to T = 0.2 the source's rows cannot reach it, so no step runs
    calls = []
    for name in ("stress", "step"):
        fn = getattr(elastic_sim._Workspace, name)
        monkeypatch.setattr(elastic_sim._Workspace, name,
                            lambda self, *args, fn=fn: calls.append(fn(self, *args)))
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.2, h=0.05)
    traces, _ = _reference_dn(unit_material, unit_box, src, [(1.0, 0.5)], 0.2, 0.05, res.dt)
    assert res.counters["steps"] == 7
    assert calls == [] and res.counters["window_cell_steps"] == 0
    assert not np.any(traces) and np.array_equal(res.traces[0].samples, traces[0])


def test_stress_and_step_allocate_no_plane(unit_material, unit_box, monkeypatch):
    # the kernel works in place: no call allocates a plane-sized temporary
    nx = ny = 101
    peaks = []

    def traced(fn):
        def call(self, *args):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(self, *args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return call

    for name in ("stress", "step"):
        monkeypatch.setattr(elastic_sim._Workspace, name,
                            traced(getattr(elastic_sim._Workspace, name)))
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    tracemalloc.start()
    try:
        res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.4, h=1.0 / (nx - 1))
    finally:
        tracemalloc.stop()
    assert res.grid.nx == nx and res.counters["threads"] == 1
    assert len(peaks) == 2 * res.counters["steps"] + 1
    assert 0 < max(peaks) < nx * ny * 4
