import math
from dataclasses import replace

import numpy as np
import pytest

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


def _reference_dn(material, domain, source, receivers, T, h, dt, dtype=np.float32):
    """The FD step written plainly with np.gradient on (nx, ny, 2) arrays of
    displacement and nodal material arrays of the given dtype, with the
    traces formed in float64: in float32, simulate_dn must reproduce its
    traces and final displacement bit for bit."""
    w = domain.widths
    grid = Grid2D(tuple(domain.lo), h, *(int(round(w[a] / h)) + 1 for a in (0, 1)))
    xs, ys = grid.nodes()
    X = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    lam, mu, rho = (f.eval(X)[0].reshape(len(xs), len(ys)).astype(dtype)
                    for f in (material.lam, material.mu, material.rho))
    axis, side = EDGES[source.edge]
    patch = [slice(None)] * 2
    patch[axis] = -side
    prof, pol = source.profile((xs, ys)[1 - axis]), np.asarray(source.polarization)

    def walls(u, t):
        u[[0, -1]] = 0.0
        u[:, [0, -1]] = 0.0
        u[tuple(patch)] = np.outer(prof * float(source.pulse(t)), pol)

    def d(f, a):
        return np.gradient(f, h, axis=a)

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
        sxx = lam * div + 2.0 * mu * d(u[:, :, 0], 0)
        syy = lam * div + 2.0 * mu * d(u[:, :, 1], 1)
        sxy = mu * (d(u[:, :, 0], 1) + d(u[:, :, 1], 0))
        # a float32 scalar times a Python float stays float32: upcast first
        sxx64, sxy64, syy64 = (s.astype(float) for s in (sxx, sxy, syy))
        traces.append([(sxx64[i] * nx + sxy64[i] * ny, sxy64[i] * nx + syy64[i] * ny)
                       for i, (nx, ny) in at])
        if n == int(round(T / dt)):
            return np.array(traces).transpose(1, 0, 2), u
        acc = np.stack([d(sxx, 0) + d(sxy, 1), d(sxy, 0) + d(syy, 1)], axis=-1)
        u, u_prev = 2.0 * u - u_prev + dt * dt * (acc / rho[:, :, None]), u
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
    ref, _ = _reference_dn(mat, unit_box, src, receivers, 0.9, h, res.dt, dtype=float)
    got = np.array([tr.samples for tr in res.traces])
    assert np.linalg.norm(got - ref) <= 1e-4 * np.linalg.norm(ref)
    for g, r in zip(got, ref):
        t_got, t_ref = (pick_first_arrival(x, 0.05, src.f0, res.dt).time for x in (g, r))
        assert abs(t_got - t_ref) <= 1e-6
