import errno
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elastic_lens import elastic_sim
from elastic_lens.elastic_sim import (BoundarySource, MaterialGrid, bump,
                                      check_cfl, receiver_nodes, ricker,
                                      sample_material, simulate_dn, stable_dt)
from elastic_lens.errors import (ConfigurationError, DomainError, NumericalError,
                                  ResourceError)
from elastic_lens.model_core import (EDGES, BoxDomain, ConstantField,
                                     ElasticMaterial, Grid2D, GridField,
                                     LinearField)
from tests.conftest import assert_no_child


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


@pytest.mark.parametrize("hi, b, h, T", [((1.0, 2.4), (0.0, 0.0), 0.0025, 1.3),
                                      ((1.0, 1.0), (0.5, 0.0), 0.005, 1.0)],
                         ids=["A3", "hetero_box"])
def test_pulse_at_steps_is_the_scalar_pulse_as_t_accumulates(hi, b, h, T):
    # simulate_dn evaluates the pulse once per run: bitwise the per-step
    # float(source.pulse(t)) with t += dt, on the acceptance and hetero_box runs
    box = BoxDomain((0.0, 0.0), hi)
    lam_mu = LinearField(1.0, b, box)
    mat = ElasticMaterial(lam_mu, lam_mu, ConstantField(1.0, box))
    dt = stable_dt(sample_material(mat, Grid2D((0.0, 0.0), h, *(round(w / h) + 1 for w in hi))))
    src = BoundarySource(edge="left", center=0.5, width=0.1, f0=20.0,
                         polarization=(0.5, math.sqrt(3.0) / 2.0))
    n_steps = int(round(T / dt))
    times, amps = elastic_sim._pulse_at_steps(src, dt, n_steps)
    t, scalar = 0.0, []
    for n in range(n_steps + 1):
        assert times[n] == t
        scalar.append(float(src.pulse(t)))
        t += dt
    assert len(amps) == n_steps + 1 > 300 and np.array_equal(amps, scalar)


def test_sample_material_by_row_blocks_matches_one_evaluation(monkeypatch):
    # one-row blocks: every block fills its own row of the field's array, and
    # the ConstantField rho comes back as its float
    grid = Grid2D((0.0, 0.0), 0.05, 21, 13)
    mat = ElasticMaterial(LinearField(1.0, (0.5, 0.0)), LinearField(1.2, (-0.2, 0.4)),
                          ConstantField(1.3))
    xs, ys = grid.nodes()
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    monkeypatch.setattr(elastic_sim, "_SAMPLE_BLOCK_NODES", 1)
    mg = sample_material(mat, grid)
    for f, v in ((mat.lam, mg.lam), (mat.mu, mg.mu)):
        assert v.shape == (21, 13) and np.array_equal(v.ravel(), f.eval(nodes)[0])
    assert type(mg.rho) is float and mg.rho == 1.3


def test_zero_gradient_linear_material_steps_like_the_constant_one(unit_box):
    # the linear fields are sampled into arrays, the constant ones are floats
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    runs = [simulate_dn(ElasticMaterial(*(kind(v) for v in (2.0, 0.7, 1.3))), unit_box, src,
                        [(1.0, 0.5), (0.5, 1.0)], T=0.4, h=0.05)
            for kind in (lambda v: LinearField(v, (0.0, 0.0)), ConstantField)]
    assert runs[0].dt == runs[1].dt and np.array_equal(runs[0].traces, runs[1].traces)
    small = ElasticMaterial(*(ConstantField(1.0, BoxDomain((0.0, 0.0), (0.5, 0.5))),) * 3)
    with pytest.raises(DomainError, match=r"point \[1.0, 1.0\] outside"):
        sample_material(small, Grid2D((0.0, 0.0), 0.05, 21, 21))


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
    # the scheme is stable for dt < sqrt(2) h / c_bound (module docstring),
    # and c_bound is the largest interior c_p for these smooth materials: the
    # default 1.3 h / c_bound stays bounded over a long run, and 1.5 h /
    # c_bound, past the limit, blows up within a few blow-up checks
    mat = _STABILITY_MATERIALS[material]
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    res = simulate_dn(mat, unit_box, src, [(1.0, 0.5)], T=30.0, h=0.05)
    assert res.dt == stable_dt(sample_material(mat, res.grid))
    assert res.counters["dt_over_limit"] == pytest.approx(1.3 / math.sqrt(2.0))
    assert res.counters["max_u_over_pol"] < 1.3
    assert np.all(np.isfinite(res.traces[0]))
    monkeypatch.setattr(elastic_sim, "CFL_SAFETY", 1.5)
    with pytest.raises(NumericalError):
        simulate_dn(mat, unit_box, src, [(1.0, 0.5)], T=30.0, h=0.05)


def _spatial_operator(mg):
    """The step's spatial operator A (u_tt = -A u) on the interior nodes, in
    float64, one column at a time: a float64 step of the whole grid from
    u_prev = 0 at dt = 1 turns u_prev into 2 u - A u.  The walls stay zero
    (Dirichlet)."""
    nx, ny = mg.grid.nx, mg.grid.ny
    ws = elastic_sim._Workspace(mg, np.float64, 1.0, np.array([], int), 1)
    inner = np.zeros((2, nx, ny), bool)
    inner[:, 1:-1, 1:-1] = True
    cols = np.flatnonzero(inner)
    u, u_prev = np.zeros((2, 2, nx, ny))
    op = np.empty((cols.size, cols.size))
    for j, c in enumerate(cols):
        u.reshape(-1)[c] = 1.0
        u_prev[:] = 0.0
        ws.strip(u, u_prev, 0, (0, nx))
        op[:, j] = (2.0 * u - u_prev).reshape(-1)[cols]
        u.reshape(-1)[c] = 0.0
    return op


_BOX_13 = Grid2D((0.0, 0.0), 1.0 / 12, 13, 13)


def _two_layers(grid, axis, k, low, high):
    """(lam, mu, rho) sampled node by node: `low` on the nodes up to index k
    along axis, `high` past it."""
    past = np.indices((grid.nx, grid.ny))[axis] > k
    return MaterialGrid(grid, *(np.where(past, b, a) for a, b in zip(low, high)))


# a 10x jump in rho and lam + 2 mu at equal c_p: node i beside the jump reads
# lam + 2 mu = 10 from its neighbour over rho_i = 1, so the nodal c_p = 1
# bounds nothing (the discrete limit is 1.06 h / c_p)
_SHARP_JUMP = ((1 / 3, 1 / 3, 1.0), (10 / 3, 10 / 3, 10.0))

# a (1 + s . x), positive over the unit box (and the field's default bounds)
_affine = st.builds(lambda a, sx, sy: LinearField(a, (a * sx, a * sy)),
                    st.floats(0.1, 3.0), st.floats(-0.45, 0.45), st.floats(-0.45, 0.45))
_smooth = st.builds(lambda lam, mu, rho: sample_material(ElasticMaterial(lam, mu, rho), _BOX_13),
                    _affine, _affine, _affine)
# lam, mu and rho each jump by up to 1000x across a row or column of nodes
_side = st.tuples(*(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),) * 3)
_layered = st.builds(_two_layers, st.just(_BOX_13), st.integers(0, 1), st.integers(0, 11),
                     _side, _side)


@example(sample_material(ElasticMaterial(*(ConstantField(1.0),) * 3), _BOX_13))
@example(_two_layers(_BOX_13, 0, 5, *_SHARP_JUMP))
@given(mg=st.one_of(_smooth, _layered))
def test_default_dt_is_inside_the_discrete_stability_limit(mg):
    # leapfrog u^(n+1) = 2 u^n - u^(n-1) - dt^2 A u^n is stable for dt <
    # 2 / sqrt(max eig A) when every eigenvalue of A is real and >= 0; A is
    # the step's own operator, walls and one-sided edge differences included
    op = _spatial_operator(mg)
    eig = np.linalg.eigvals(op)
    top = eig.real.max()
    assert np.abs(eig.imag).max() <= 1e-9 * top and eig.real.min() >= -1e-9 * top
    assert stable_dt(mg) <= 0.95 * 2.0 / math.sqrt(top)
    # 2 c_bound^2 / h^2 bounds every Gershgorin row sum (walls drop terms),
    # and so top; stable_dt is then 1.3 / sqrt(2) of a limit it cannot exceed
    rows = np.abs(op).sum(axis=1).max()
    assert top <= rows <= 2.0 * mg.c_bound ** 2 / mg.grid.h ** 2 * (1 + 1e-12)


def test_default_dt_is_stable_across_a_sharp_impedance_jump(unit_box, monkeypatch):
    # _SHARP_JUMP across x = 0.5 on the simulation's own nodes (a grid field
    # interpolates its nodes): c_bound = 2 c_p, and the default 1.3 h /
    # c_bound stays bounded over a long run, where 1.3 h / c_p, which reads
    # only the nodal c_p, blows up
    grid = Grid2D((0.0, 0.0), 0.05, 21, 21)
    X = np.indices((21, 21))[0]
    mat = ElasticMaterial(*(GridField(grid, np.where(X > 10, b, a)) for a, b in zip(*_SHARP_JUMP)))
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    res = simulate_dn(mat, unit_box, src, [(1.0, 0.5)], T=30.0, h=0.05)
    mg = sample_material(mat, res.grid)
    assert mg.c_bound == pytest.approx(2.0) and res.dt == stable_dt(mg)
    assert res.counters["max_u_over_pol"] < 1.3
    monkeypatch.setattr(elastic_sim, "CFL_SAFETY", 1.3 * mg.c_bound)
    with pytest.raises(NumericalError):
        simulate_dn(mat, unit_box, src, [(1.0, 0.5)], T=30.0, h=0.05)


def test_receiver_snapping_accepts_boundary_rejects_interior(unit_box):
    grid = Grid2D((0.0, 0.0), 0.1, 11, 11)
    nodes = receiver_nodes(unit_box, grid, [(1.0, 0.52)])
    edge, k = nodes[0]
    assert edge == "right" and k == 5
    with pytest.raises(ConfigurationError):
        receiver_nodes(unit_box, grid, [(0.5, 0.5)])


def test_receiver_snapping_rejects_nan_points(unit_box):
    # a NaN distance to the boundary is no distance within h
    grid = Grid2D((0.0, 0.0), 0.1, 11, 11)
    for point in [(1.0, math.nan), (math.nan, 0.5)]:
        with pytest.raises(ConfigurationError, match="not on the boundary"):
            receiver_nodes(unit_box, grid, [point])


def _capture_u(mp):
    """The list that the next simulate_dn runs fill with their displacements
    u^n as (nx, ny, 2) copies: _apply_dirichlet, patched through mp, completes
    u^0 and every u^(n+1) in the main thread.  Rows outside the receiver cone
    hold stale values; with a receiver on the left and on the right edge the
    cone covers every row."""
    states, apply = [], elastic_sim._apply_dirichlet

    def capture(u, patch, amp):
        apply(u, patch, amp)
        states.append(np.moveaxis(u, 0, -1).copy())
    mp.setattr(elastic_sim, "_apply_dirichlet", capture)
    return states


def _undivided(f, a):
    """The step's differences of f along axis a, undivided: f[i+1] - f[i-1],
    and one-sided 2 (f_p - f_q) at the ends."""
    f = np.moveaxis(f, a, 0)
    g = np.concatenate([2.0 * (f[1:2] - f[:1]), f[2:] - f[:-2], 2.0 * (f[-1:] - f[-2:-1])])
    return np.moveaxis(g, 0, a)


def _energy(u, u_prev, dt, mg):
    """Discrete total energy in float64 of the (nx, ny, 2) displacements u^n and
    u^(n-1): (1/2) sum (rho |u_t|^2 + sigma(u):sym grad u) h^2, u_t = (u^n - u^(n-1)) / dt."""
    h, u = mg.grid.h, u.astype(float)
    v = (u - u_prev) / dt
    kinetic = mg.rho * (v[:, :, 0] ** 2 + v[:, :, 1] ** 2)
    (dxx, dxy), (dyx, dyy) = [[_undivided(u[:, :, i], a) for a in (0, 1)] for i in (0, 1)]
    strain = (mg.lam * (dxx + dyy) ** 2 + 2.0 * mg.mu * (dxx * dxx + dyy * dyy)
              + mg.mu * (dxy + dyx) ** 2) / (4.0 * h * h)      # sigma(u) : grad u
    return 0.5 * float(np.sum(kinetic + strain)) * h * h


def test_energy_stays_bounded_after_source_stops(unit_material, unit_box, monkeypatch):
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    states = _capture_u(monkeypatch)
    res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5), (0.0, 0.5)],
                      T=1.2, h=0.02)
    mg = sample_material(unit_material, res.grid)
    steps = [int(round(t / res.dt)) for t in (0.5, 0.8, 1.1)]
    e = [_energy(states[n], states[n - 1], res.dt, mg) for n in steps]
    # Dirichlet walls trap the energy once the source is quiet (t > ~0.44);
    # the centered-difference functional wobbles a few percent per period,
    # so test boundedness rather than exact conservation
    assert max(e) <= min(e) * 1.15


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
    mg = sample_material(ElasticMaterial(ConstantField(lam), ConstantField(mu),
                                         ConstantField(rho)), grid)
    strain_energy = 0.5 * (lam * (a + b) ** 2 + 2.0 * mu * (a * a + b * b))
    kinetic = 0.5 * rho * (v[0] ** 2 + v[1] ** 2)
    assert _energy(u, u - dt * np.asarray(v), dt, mg) == \
        pytest.approx((strain_energy + kinetic) * nx * ny * h * h, rel=1e-12)


def test_wavefield_is_float32_traces_and_dt_float64(unit_box, monkeypatch):
    mat = _REFERENCE_MATERIALS["linear-lame"]
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    states = _capture_u(monkeypatch)
    res = simulate_dn(mat, unit_box, src, [(1.0, 0.5)], T=0.3, h=0.05)
    assert {u.dtype for u in states} == {np.dtype(np.float32)}
    assert res.traces.dtype == np.float64
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
    pick = pick_first_arrival(res.traces[0], 0.05, 10.0, res.dt)
    assert pick is not None
    assert pick - t_ref == pytest.approx(1.0 / math.sqrt(3.0), rel=0.06)


def test_polarization_selects_mode_energy(unit_material, unit_box):
    # energy ratio in the p vs s pick windows flips with the polarization
    src_p = BoundarySource(edge="left", center=0.5, width=0.12, f0=10.0,
                           polarization=(1.0, 0.0))
    src_s = BoundarySource(edge="left", center=0.5, width=0.12, f0=10.0,
                           polarization=(0.0, 1.0))
    cp = math.sqrt(3.0)

    def window_energy(samples, dt, t_center, half=0.12):
        t = dt * np.arange(len(samples))
        sel = (t >= t_center - half) & (t <= t_center + half)
        return float(np.sum(samples[sel] ** 2))

    out = {}
    for tag, src in (("p", src_p), ("s", src_s)):
        res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)],
                          T=1.45, h=0.005)
        tr = res.traces[0]
        out[tag] = (window_energy(tr, res.dt, 1.0 / cp + src.delay),
                    window_energy(tr, res.dt, 1.0 + src.delay))
    assert out["p"][0] > 5.0 * out["p"][1]
    assert out["s"][1] > 5.0 * out["s"][0]


def test_simulation_is_deterministic(unit_material, unit_box):
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    kw = dict(T=0.5, h=0.02)
    a = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], **kw)
    b = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], **kw)
    assert np.array_equal(a.traces[0], b.traces[0])


def test_dirichlet_walls_are_zero_off_source(unit_material, unit_box, monkeypatch):
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    states = _capture_u(monkeypatch)
    simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.6, h=0.02)
    assert len(states) > 1 and np.any(states[-1])
    for u in states:
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
    with the traces formed in float64; returns the traces and the list of
    every step's displacement u^0 to u^N.  By default it follows the folded
    order: undivided differences (_undivided); stresses (2 mu G) + lam div,
    times 2h; their undivided divergence times dt^2 / (4 h^2 rho); then +
    (2 u - u_prev).  In float32 simulate_dn must reproduce its traces bit
    for bit, and its displacements on the rows its receiver cone covers.
    physical=True takes np.gradient's derivatives over h instead, and dt^2
    / rho: the same scheme in physical units."""
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
        return np.gradient(f, h, axis=a) if physical else _undivided(f, a)

    at = []
    for edge, k in receiver_nodes(domain, grid, receivers):
        a, s = EDGES[edge]
        node, normal = [k, k], [0.0, 0.0]
        node[a], normal[a] = -s, 2.0 * s - 1.0
        at.append((tuple(node), normal))
    u, u_prev, t, traces = np.zeros((len(xs), len(ys), 2), dtype), 0.0, 0.0, []
    walls(u, t)
    states = [u]
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
            return np.array(traces).transpose(1, 0, 2), states
        acc = np.stack([d(sxx, 0) + d(sxy, 1), d(sxy, 0) + d(syy, 1)], axis=-1)
        u, u_prev = coef * acc + (2.0 * u - u_prev), u
        t += dt
        walls(u, t)
        states.append(u)


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
    with pytest.MonkeyPatch.context() as mp:
        got = _capture_u(mp)
        res = simulate_dn(mat, unit_box, src, receivers, T=0.6, h=0.05)
    traces, states = _reference_dn(mat, unit_box, src, receivers, 0.6, 0.05, res.dt)
    assert np.array_equal(res.traces, traces)
    assert len(got) == len(states) and np.array_equal(got[-1], states[-1])
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
    got = res.traces
    assert np.linalg.norm(got - ref) <= 1e-4 * np.linalg.norm(ref)
    for g, r in zip(got, ref):
        t_got, t_ref = (pick_first_arrival(x, 0.05, src.f0, res.dt) for x in (g, r))
        assert abs(t_got - t_ref) <= 1e-6


def _force_strips(monkeypatch, n):
    """Run simulate_dn on n row strips, as on n cores with no node minimum."""
    monkeypatch.setattr(elastic_sim, "_MIN_NODES_PER_STRIP", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_row_strips_one_per_core_above_the_node_minimum(monkeypatch):
    # measured with forked lanes: two strips break even at 40-50k nodes and
    # win from ~57k, so hetero_box (201 x 201) runs on one strip and
    # fd_chain (401 x 961) on two
    assert elastic_sim._row_strips(201, 201, 2) == [(0, 201)]
    assert elastic_sim._row_strips(251, 251, 2) == [(0, 125), (125, 251)]
    assert elastic_sim._row_strips(401, 961, 2) == [(0, 200), (200, 401)]
    assert elastic_sim._row_strips(401, 961, 0) == [(0, 401)]     # no core to pin a lane to
    monkeypatch.setattr(elastic_sim, "_MIN_NODES_PER_STRIP", 100)
    assert elastic_sim._row_strips(10, 19, 3) == [(0, 10)]
    assert elastic_sim._row_strips(10, 20, 3) == [(0, 5), (5, 10)]
    assert elastic_sim._row_strips(10, 100, 3) == [(0, 3), (3, 6), (6, 10)]
    assert elastic_sim._row_strips(2, 1000, 3) == [(0, 1), (1, 2)]     # no empty strip


def test_a_run_reads_its_cores_once_and_forks_no_lane_it_cannot_pin(unit_material, unit_box,
                                                                    monkeypatch):
    calls, src = [], BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                                    polarization=(1.0, 0.0))
    _force_strips(monkeypatch, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: calls.append(pid) or {0, 1})
    res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.4, h=0.05)
    assert res.counters["processes"] == 2 and len(calls) == 1
    monkeypatch.delattr(os, "sched_setaffinity")
    res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.4, h=0.05)
    assert res.counters["processes"] == 1 and len(calls) == 1
    assert_no_child()


@pytest.mark.parametrize("h", [0.05, 0.01])
@pytest.mark.parametrize("material", ["unit", "linear-lame"])
def test_row_strips_reproduce_one_strip_bitwise(unit_box, monkeypatch, material, h):
    # every split of the rows, into strips and into tiles of 1 row, 3 rows or
    # the whole grid, gives each node the same float32 operations, a strip
    # or tile of a single wall row included
    mat = _REFERENCE_MATERIALS[material]
    src = BoundarySource(edge="left", center=0.45, width=0.3, f0=8.0,
                         polarization=(0.6, 0.8))
    receivers = [(1.0, 0.5), (0.3, 1.0), (0.6, 0.0), (1.0, 0.0), (0.0, 1.0)]

    states = _capture_u(monkeypatch)

    def run():
        states.clear()
        res = simulate_dn(mat, unit_box, src, receivers, T=0.6, h=h)
        return res, res.traces, states[-1]

    one, traces, u = run()
    assert one.counters["processes"] == 1
    ref, ref_states = _reference_dn(mat, unit_box, src, receivers, 0.6, h, one.dt)
    assert np.array_equal(traces, ref) and np.array_equal(u, ref_states[-1])
    ny, row_strips = one.grid.ny, elastic_sim._row_strips
    for rows in (1, 3, one.grid.nx):
        monkeypatch.setattr(elastic_sim, "_TILE_NODES", rows * ny)
        for n, strips in ((1, row_strips), (2, row_strips), (3, row_strips),
                          (3, lambda nx, ny, cores: [(0, 1), (1, nx - 1), (nx - 1, nx)])):
            _force_strips(monkeypatch, n)
            monkeypatch.setattr(elastic_sim, "_row_strips", strips)
            res, got, got_u = run()
            assert res.counters["processes"] == n and res.counters["tile_rows"] == rows
            assert np.array_equal(got, traces) and np.array_equal(got_u, u)
    assert_no_child()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_strip_error_reaches_the_caller_and_leaves_no_child_process(unit_material, unit_box,
                                                                   monkeypatch, error):
    # an error in a forked lane, even one no `except Exception` would catch,
    # comes back as a NumericalError naming it, and every lane is reaped
    _force_strips(monkeypatch, 2)
    tile, caller = elastic_sim._Workspace.tile, os.getpid()

    def tile_failing_off_the_caller(self, *args):
        if os.getpid() != caller:
            raise error("strip failed")
        tile(self, *args)

    monkeypatch.setattr(elastic_sim._Workspace, "tile", tile_failing_off_the_caller)
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    # by T = 0.4 the source row 0 can reach the receiver row 20, so strips run
    with pytest.raises(NumericalError, match=f"{error.__name__}: strip failed"):
        simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.4, h=0.05)
    assert_no_child()


def test_failed_fork_is_a_resource_error_that_leaves_no_pipe_open(unit_material, unit_box,
                                                                monkeypatch):
    _force_strips(monkeypatch, 3)
    fork, fds = os.fork, len(os.listdir("/proc/self/fd"))

    def fail():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    def fork_once():        # the second lane's fork fails
        monkeypatch.setattr(os, "fork", fail)
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    with pytest.raises(ResourceError, match="cannot fork a process for a row strip"):
        simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.4, h=0.05)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert_no_child()


def test_two_lanes_leave_no_child_process_on_return_or_interrupt(unit_material, unit_box,
                                                                 monkeypatch):
    _force_strips(monkeypatch, 2)
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(1.0, 0.0))
    res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.4, h=0.05)
    assert res.counters["processes"] == 2 and 0.0 <= res.counters["lane_wait_seconds"]
    assert_no_child()
    apply = elastic_sim._apply_dirichlet

    def interrupted(u, patch, amp):     # in the caller, with the lanes waiting on it
        if amp != 0.0:
            raise KeyboardInterrupt
        apply(u, patch, amp)

    monkeypatch.setattr(elastic_sim, "_apply_dirichlet", interrupted)
    with pytest.raises(KeyboardInterrupt):
        simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.4, h=0.05)
    assert_no_child()


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
        got = _capture_u(mp)
        res = simulate_dn(mat, unit_box, src, receivers, T=0.5, h=h, dt=dt)
    traces, states = _reference_dn(mat, unit_box, src, receivers, 0.5, h, dt)
    u = states[-1]
    assert np.array_equal(res.traces, traces)
    assert len(got) == len(states) and np.array_equal(got[-1], u)
    rows = np.flatnonzero(np.any(got[n] != 0.0, axis=(1, 2)))
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
       T=st.floats(0.2, 0.8), h=st.sampled_from([0.02, 0.025, 0.04, 0.05]),
       material=st.sampled_from(["constant", "linear-lame-rho"]),
       strips=st.integers(1, 3))
def test_receiver_cone_is_invisible(edge, center, width, angle, receivers, T, h,
                                    material, strips):
    # step n runs only on the rows within 2 (N - n) of the receivers'; the
    # full-grid reference must see the same traces, in any strips, and the
    # same u^n on the rows within 2 (N - n) + 1 of a receiver's row, which
    # the traces from step n on read (one row further out, u^n can differ).
    # Two receivers per edge make the receiver rows span a range on a
    # bottom or top edge.
    mat, unit_box = _REFERENCE_MATERIALS[material], BoxDomain((0.0, 0.0), (1.0, 1.0))
    src = BoundarySource(edge=edge, center=center, width=width, f0=8.0,
                         polarization=(math.cos(angle), math.sin(angle)))
    points = [_edge_point(e, s) for e, s1, s2 in receivers for s in (s1, s2)]
    nx = int(round(1.0 / h)) + 1
    dt = stable_dt(sample_material(mat, Grid2D((0.0, 0.0), h, nx, nx)))
    with pytest.MonkeyPatch.context() as mp:
        _force_strips(mp, strips)
        got = _capture_u(mp)
        res = simulate_dn(mat, unit_box, src, points, T=T, h=h, dt=dt)
    traces, states = _reference_dn(mat, unit_box, src, points, T, h, dt)
    assert np.array_equal(res.traces, traces) and len(got) == len(states)
    rows = [k if EDGES[e][0] == 1 else EDGES[e][1] * (nx - 1)
            for e, k in receiver_nodes(unit_box, res.grid, points)]
    reach = np.abs(np.arange(nx)[:, None] - rows).min(axis=1)    # rows to a receiver's row
    n_steps = len(states) - 1
    for n, (u, ref) in enumerate(zip(got, states)):
        near = reach <= 2 * (n_steps - n) + 1
        assert np.array_equal(u[near], ref[near])


def test_receivers_out_of_reach_get_zero_traces_and_no_strip_work(unit_material, unit_box,
                                                                  monkeypatch):
    # the left source drives row 0 and the receiver sits on row 20: in the
    # 5 steps to T = 0.2 the source's rows cannot reach it, so no step runs
    calls, tile = [], elastic_sim._Workspace.tile
    monkeypatch.setattr(elastic_sim._Workspace, "tile",
                        lambda self, *args: calls.append(tile(self, *args)))
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5)], T=0.2, h=0.05)
    traces, _ = _reference_dn(unit_material, unit_box, src, [(1.0, 0.5)], 0.2, 0.05, res.dt)
    assert res.counters["steps"] == 5
    assert calls == [] and res.counters["window_cell_steps"] == 0
    assert not np.any(traces) and np.array_equal(res.traces[0], traces[0])


def test_tile_kernel_allocates_no_plane(unit_material, unit_box, monkeypatch):
    # the kernel works in place: no tile allocates a temporary the size of
    # one plane of its own buffer, let alone of the grid
    nx = ny = 101
    peaks = []
    tile = elastic_sim._Workspace.tile

    def traced(self, *args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tile(self, *args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)

    monkeypatch.setattr(elastic_sim._Workspace, "tile", traced)
    monkeypatch.setattr(elastic_sim, "_TILE_NODES", 16 * ny)
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    tracemalloc.start()
    try:
        res = simulate_dn(unit_material, unit_box, src, [(1.0, 0.5), (0.0, 0.5)], T=0.4,
                          h=1.0 / (nx - 1))
    finally:
        tracemalloc.stop()
    assert res.grid.nx == nx and res.counters["processes"] == 1
    assert res.counters["tile_rows"] == 16 and len(peaks) > 2 * res.counters["steps"]
    assert 0 < max(peaks) < 18 * ny * 4


def test_simulate_holds_two_displacements_and_a_tile_per_thread(unit_material, unit_box):
    # array_bytes: u^n and u^(n-1), one tile buffer (5 planes of a tile and
    # its two halo rows) per lane, the receivers' float32 stresses and the
    # pulse.  The traced peak: the caller's tile buffer, the pulse, the
    # float64 traces and 64 KiB for everything else; the displacements and
    # stresses sit in the shared mapping, which tracemalloc does not see.
    # A third displacement array (1.3 MB) or a full-grid stress buffer breaks it
    nx = ny = 401
    src = BoundarySource(edge="left", center=0.5, width=0.2, f0=8.0,
                         polarization=(0.6, 0.8))
    receivers = [(1.0, 0.5), (0.0, 0.3), (0.5, 1.0)]
    def run():
        return simulate_dn(unit_material, unit_box, src, receivers, T=0.05, h=1.0 / (nx - 1))
    run()       # imports mmap
    tracemalloc.start()
    try:
        res = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    c, steps = res.counters, res.counters["steps"] + 1
    assert res.grid.nx == nx and res.grid.ny == ny
    tile, pulse = 5 * (c["tile_rows"] + 2) * ny * 4, 2 * steps * 8
    assert c["array_bytes"] == (2 * 2 * nx * ny * 4 + c["processes"] * tile
                                + steps * len(receivers) * 3 * 4 + pulse)
    assert c["tile_rows"] < nx and peak <= tile + pulse + res.traces.nbytes + (64 << 10)
