"""2D finite-difference solver for the isotropic elastic system.

Displacement formulation on a node-centered rectangular grid:

    rho u_tt = div sigma(u),   sigma = lam (div u) I + 2 mu sym(grad u),

advanced with explicit leapfrog.  Dirichlet data drives the boundary: a
source patch on one edge, homogeneous zero elsewhere.  The recorded
Neumann data sigma(u).nu at receivers is one column of the
Dirichlet-to-Neumann kernel.

The stress is assembled pointwise from nodal material fields and its
divergence taken with the same centered differences (one-sided second
order at the edges), matching the divergence form of the operator and
keeping the discretization self-adjoint up to edge effects.  One stress
evaluation per step yields both the Neumann traces and the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError
from .model_core import EDGES, BoxDomain, ElasticMaterial, Grid2D

CFL_SAFETY = 0.5
_FINITE_CHECK_STEPS = 64    # simulate_dn checks u for blow-up this often


def ricker(t, f0: float, t0: float):
    """Ricker wavelet delayed by t0 and clamped to exactly zero for t <= 0.

    At the default delay t0 = 1.5/f0 the clamp removes a remainder of order
    1e-8 of the peak; the resulting kink is far below grid noise.
    """
    t = np.asarray(t, dtype=float)
    a = math.pi * f0 * (t - t0)
    w = (1.0 - 2.0 * a * a) * np.exp(-a * a)
    return np.where(t > 0.0, w, 0.0)


def bump(s, center: float, width: float):
    """C^infinity bump of unit peak, compactly supported on |s-center| < width/2."""
    s = np.asarray(s, dtype=float)
    xi = (s - center) / (0.5 * width)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi[inside] ** 2))
    return out


@dataclass(frozen=True)
class BoundarySource:
    """Dirichlet source patch: smooth bump along an edge times a Ricker pulse."""

    edge: str
    center: float          # coordinate along the edge
    width: float
    f0: float
    polarization: tuple
    t0: float | None = None

    def __post_init__(self):
        if self.edge not in EDGES:
            raise ConfigurationError(f"edge must be one of {tuple(EDGES)}, got {self.edge!r}")
        if self.width <= 0 or self.f0 <= 0:
            raise ConfigurationError("source width and f0 must be positive")

    @property
    def delay(self):
        return self.t0 if self.t0 is not None else 1.5 / self.f0

    def pulse(self, t):
        return ricker(t, self.f0, self.delay)

    def profile(self, s):
        return bump(s, self.center, self.width)


@dataclass
class WavefieldState:
    """Displacement, previous displacement and time; velocity is derived."""

    u: np.ndarray            # (nx, ny, 2)
    u_prev: np.ndarray
    t: float
    grid: Grid2D
    dt: float

    @property
    def velocity(self):
        return (self.u - self.u_prev) / self.dt


@dataclass(frozen=True)
class TractionTrace:
    """Time series of sigma(u).nu at one boundary receiver."""

    receiver: tuple
    dt: float
    samples: np.ndarray      # (nt, 2)


@dataclass
class MaterialGrid:
    """Material fields sampled at the nodes of a grid."""

    grid: Grid2D
    lam: np.ndarray
    mu: np.ndarray
    rho: np.ndarray

    @property
    def cp_max(self):
        return float(np.sqrt(np.max((self.lam + 2 * self.mu) / self.rho)))


def sample_material(material: ElasticMaterial, grid: Grid2D) -> MaterialGrid:
    xs, ys = grid.nodes()
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    lam, mu, rho = (f.eval(nodes)[0].reshape(len(xs), len(ys))
                    for f in (material.lam, material.mu, material.rho))
    return MaterialGrid(grid, lam, mu, rho)


def _gradients(u: np.ndarray, h: float):
    """(dux/dx, dux/dy, duy/dx, duy/dy) by centered differences."""
    return (np.gradient(u[:, :, 0], h, axis=0),
            np.gradient(u[:, :, 0], h, axis=1),
            np.gradient(u[:, :, 1], h, axis=0),
            np.gradient(u[:, :, 1], h, axis=1))


def _stress_fields(mg: MaterialGrid, grads):
    dux_dx, dux_dy, duy_dx, duy_dy = grads
    div = dux_dx + duy_dy
    sxx = mg.lam * div + 2.0 * mg.mu * dux_dx
    syy = mg.lam * div + 2.0 * mg.mu * duy_dy
    sxy = mg.mu * (dux_dy + duy_dx)
    return sxx, syy, sxy


def _divergence(mg: MaterialGrid, sxx, syy, sxy) -> np.ndarray:
    """rho^-1 div sigma on the grid (centered differences)."""
    h = mg.grid.h
    out = np.empty(sxx.shape + (2,))
    out[:, :, 0] = np.gradient(sxx, h, axis=0) + np.gradient(sxy, h, axis=1)
    out[:, :, 1] = np.gradient(sxy, h, axis=0) + np.gradient(syy, h, axis=1)
    out /= mg.rho[:, :, None]
    return out


def check_cfl(mg: MaterialGrid, dt: float):
    limit = CFL_SAFETY * mg.grid.h / mg.cp_max
    if dt > limit * (1 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt:.3g} violates CFL: must be <= {CFL_SAFETY} h / max c_p = {limit:.3g}")


def stable_dt(mg: MaterialGrid) -> float:
    return CFL_SAFETY * mg.grid.h / mg.cp_max


def _edge_nodes(edge):
    """(slice of the edge's nodes into (nx, ny) arrays, outward unit normal)."""
    axis, side = EDGES[edge]
    sl, normal = [slice(None), slice(None)], [0.0, 0.0]
    sl[axis], normal[axis] = -side, 2.0 * side - 1.0
    return tuple(sl), tuple(normal)


def _source_patch(grid: Grid2D, source: BoundarySource):
    """(boundary slice, bump profile, polarization) of the source patch."""
    along = grid.nodes()[1 - EDGES[source.edge][0]]
    return (_edge_nodes(source.edge)[0], source.profile(along),
            np.asarray(source.polarization, dtype=float))


def _apply_dirichlet(u, patch, amp: float):
    """Zero the walls, then drive the source patch at amplitude amp."""
    u[0, :, :] = 0.0
    u[-1, :, :] = 0.0
    u[:, 0, :] = 0.0
    u[:, -1, :] = 0.0
    sl, prof, pol = patch
    u[sl][:, 0] = prof * amp * pol[0]
    u[sl][:, 1] = prof * amp * pol[1]


def energy(state: WavefieldState, mg: MaterialGrid) -> float:
    """Discrete total energy: (1/2) sum (rho |u_t|^2 + sigma(u):sym grad u) h^2."""
    h = mg.grid.h
    v = state.velocity
    kinetic = mg.rho * (v[:, :, 0] ** 2 + v[:, :, 1] ** 2)
    grads = _gradients(state.u, h)
    dux_dx, dux_dy, duy_dx, duy_dy = grads
    sxx, syy, sxy = _stress_fields(mg, grads)
    strain = sxx * dux_dx + syy * duy_dy + sxy * (dux_dy + duy_dx)
    return 0.5 * float(np.sum(kinetic + strain)) * h * h


def _traction_at(sxx, syy, sxy, edge_nodes, positions):
    sl, (nx_, ny_) = edge_nodes
    tx = sxx[sl] * nx_ + sxy[sl] * ny_
    ty = sxy[sl] * nx_ + syy[sl] * ny_
    return tx[positions], ty[positions]


@dataclass
class SimulationResult:
    traces: list
    grid: Grid2D
    dt: float
    snapshots: list = field(default_factory=list)   # WavefieldState objects
    meta: dict = field(default_factory=dict)


def receiver_nodes(domain: BoxDomain, grid: Grid2D, receivers):
    """Snap receiver boundary points to (edge, index) pairs on the grid."""
    out = []
    for p in receivers:
        p = np.asarray(p, dtype=float)
        if abs(domain.signed(p)) > grid.h:
            raise ConfigurationError(f"receiver {tuple(p)} is not on the boundary")
        edge = domain.nearest_edge(p)
        along = 1 - EDGES[edge][0]
        k = int(np.argmin(np.abs(grid.nodes()[along] - p[along])))
        out.append((edge, k, tuple(p)))
    return out


def simulate_dn(material: ElasticMaterial, domain: BoxDomain,
                source: BoundarySource, receivers, T: float, h: float,
                dt: float | None = None, snapshot_times=()) -> SimulationResult:
    """Drive the box with a Dirichlet source and record sigma(u).nu traces.

    receivers: list of boundary points (snapped to the nearest boundary
    node).  Returns one TractionTrace per receiver with sample interval dt.
    """
    w = domain.widths
    nx = int(round(w[0] / h)) + 1
    ny = int(round(w[1] / h)) + 1
    grid = Grid2D(tuple(domain.lo), h, nx, ny)
    mg = sample_material(material, grid)
    if dt is None:
        dt = stable_dt(mg)
    check_cfl(mg, dt)

    rec = receiver_nodes(domain, grid, receivers)
    edges = {e: _edge_nodes(e) for e, _, _ in rec}
    n_steps = int(round(T / dt))
    traces = np.zeros((len(rec), n_steps + 1, 2))
    snaps = []
    snap_left = sorted(snapshot_times)

    patch = _source_patch(grid, source)
    u = np.zeros((nx, ny, 2))
    u_prev = np.zeros_like(u)
    t = 0.0
    _apply_dirichlet(u, patch, float(source.pulse(t)))
    for n in range(n_steps + 1):
        sxx, syy, sxy = _stress_fields(mg, _gradients(u, h))
        for r, (edge, k, _) in enumerate(rec):
            tx, ty = _traction_at(sxx, syy, sxy, edges[edge], k)
            traces[r, n, 0] = tx
            traces[r, n, 1] = ty
        while snap_left and t >= snap_left[0] - 0.5 * dt:
            snaps.append(WavefieldState(u.copy(), u_prev.copy(), t, grid, dt))
            snap_left.pop(0)
        if n == n_steps:
            break
        u_new = 2.0 * u - u_prev + dt * dt * _divergence(mg, sxx, syy, sxy)
        t += dt
        _apply_dirichlet(u_new, patch, float(source.pulse(t)))
        u_prev, u = u, u_new
        if (n + 1) % _FINITE_CHECK_STEPS == 0 and not np.isfinite(u).all():
            raise NumericalError(f"displacement is not finite at step {n + 1} "
                                 f"(t = {t:.6g}); the scheme blew up")

    out = [TractionTrace(rec[r][2], dt, traces[r]) for r in range(len(rec))]
    meta = {"grid": {"nx": nx, "ny": ny, "h": h}, "dt": dt, "steps": n_steps,
            "cfl_limit": stable_dt(mg),
            "source": {"edge": source.edge, "center": source.center,
                       "width": source.width, "f0": source.f0, "t0": source.delay,
                       "polarization": list(source.polarization)}}
    return SimulationResult(out, grid, dt, snaps, meta)
