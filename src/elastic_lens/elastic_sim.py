"""2D finite-difference solver for the isotropic elastic system.

Displacement formulation on a node-centered rectangular grid:

    rho u_tt = div sigma(u),   sigma = lam (div u) I + 2 mu sym(grad u),

advanced with explicit leapfrog.  Dirichlet data drives the boundary: a
source patch on one edge, homogeneous zero elsewhere.  The recorded
Neumann data sigma(u).nu at receivers is one column of the
Dirichlet-to-Neumann kernel.

The stress is assembled pointwise from nodal material fields and its
divergence taken with the same centered differences (one-sided first
order at the edges), matching the divergence form of the operator and
keeping the discretization self-adjoint up to edge effects.  The
differences are undivided (stresses times 2h, divergence times 4h^2): one
coefficient dt^2 / (4 h^2 rho) takes all scales; traces are divided by 2h.
One stress evaluation per step, formed in place over the differences,
yields both the Neumann traces and the update.  A step works on float32
buffers allocated once per run (it is memory-bound), the displacement held
as planar (2, nx, ny) arrays; dt and the traces are float64.  On A3 the
traces stay within 1.8e-6 (relative L2) of a float64 run, the picks within
1e-8 s.  Step n skips the rows past 2 n + 2 of those the source drives
(still exactly zero) and, once no snapshot is pending, past 2 (N - n) of
the receivers' (no later trace reads them).  On large grids each core steps
one strip of rows; every node sees the same float32 operations in any
strips, so the output does not depend on the core count.

Stability limit.  Every derivative is the centered difference D0, whose
symbol on exp(i k.x) is i sin(k h)/h.  With constant coefficients the
spatial operator rho^-1 div sigma therefore has the symbol
-(c_s^2 |s|^2 I + (c_p^2 - c_s^2) s s^T), s = (sin(k_x h), sin(k_y h))/h,
whose eigenvalues are -c_p^2 |s|^2 (along s) and -c_s^2 |s|^2 (across it),
with |s|^2 <= 2/h^2.  Leapfrog on u_tt = -w^2 u is stable for dt w < 2,
so the scheme is stable for dt < 2 h / (sqrt(2) c_p,max) = sqrt(2) h / c_p,max.
The default and largest accepted step is CFL_SAFETY h / c_p,max, 71 % of
that limit; with variable coefficients c_p,max is the largest nodal c_p.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError
from .model_core import EDGES, BoxDomain, ElasticMaterial, Grid2D

CFL_SAFETY = 1.0            # dt <= CFL_SAFETY h / c_p,max; the limit is sqrt(2)
_BLOW_UP_CHECK_STEPS = 64   # simulate_dn checks u for blow-up this often:
_BLOW_UP_FACTOR = 1e3       # max|u| over this times max|pol| (stable runs: < 1.3)
_MIN_NODES_PER_STRIP = 75_000    # below this a strip costs more in handoff than it saves


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
    """Displacement, previous displacement and time; velocity is derived, in float64."""

    u: np.ndarray            # (nx, ny, 2)
    u_prev: np.ndarray
    t: float
    grid: Grid2D
    dt: float

    @property
    def velocity(self):
        return (self.u.astype(float) - self.u_prev) / self.dt


@dataclass(frozen=True)
class TractionTrace:
    """Time series of sigma(u).nu at one boundary receiver."""

    receiver: tuple
    dt: float
    samples: np.ndarray      # (nt, 2)


@dataclass
class MaterialGrid:
    """Material fields sampled at the nodes of a grid: (nx, ny) arrays, or
    Python floats for fields that take one value at every node."""

    grid: Grid2D
    lam: np.ndarray | float
    mu: np.ndarray | float
    rho: np.ndarray | float

    @property
    def cp_max(self):
        return float(np.sqrt(np.max((self.lam + 2 * self.mu) / self.rho)))


def sample_material(material: ElasticMaterial, grid: Grid2D) -> MaterialGrid:
    xs, ys = grid.nodes()
    nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    fields = (f.eval(nodes)[0] for f in (material.lam, material.mu, material.rho))
    # a float gives the same products as an array of that value, at less cost
    return MaterialGrid(grid, *(float(v[0]) if np.all(v == v[0])
                                else v.reshape(len(xs), len(ys)) for v in fields))


def stable_dt(mg: MaterialGrid) -> float:
    return CFL_SAFETY * mg.grid.h / mg.cp_max


def check_cfl(mg: MaterialGrid, dt: float):
    limit = stable_dt(mg)
    if dt > limit * (1 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt!r} violates CFL: must be <= {CFL_SAFETY} h / max c_p = {limit!r}")


class _Workspace:
    """The buffers of one FD run, allocated once: planes (5, nx, ny) in `dtype`,
    [dux/dx, dux/dy, duy/dy, duy/dx, lam div u], the first three turned into
    sxx, sxy, syy in place; the array-valued Lame fields and update
    coefficient cast to it.  `stress` and `step` work on the rows r0 to r1 - 1,
    rows = (r0, r1); a step updates the strip's flat nodes from (1, 1) to
    (nx-2, ny-2): interior nodes and, between them, wall nodes that
    _apply_dirichlet overwrites.  A node gets the same operations in any strips."""

    def __init__(self, mg: MaterialGrid, dtype, dt: float):
        nx, ny, h = mg.grid.nx, mg.grid.ny, mg.grid.h
        self.lam, self.mu = (v if isinstance(v, float) else v.astype(dtype)
                             for v in (mg.lam, mg.mu))
        self.two_mu = 2.0 * self.mu
        coef = dt * dt / (4.0 * h * h * mg.rho)
        self.coef = coef if isinstance(coef, float) else coef.astype(dtype).reshape(-1)
        self.planes = np.zeros((5, nx, ny), dtype)    # rows never stepped stay zero
        self.sigma = self.planes[:3]

    def differences(self, u, rows):
        """Differences of the planar u (2, nx, ny) on the strip, times 2h, into
        planes 0-3: u[i+1] - u[i-1] along the flattened arrays (so along y they
        wrap from row to row at the ends), then one-sided 2 (u_p - u_q) at walls."""
        (r0, r1), (nx, ny) = rows, u.shape[1:]
        a, b, g = r0 * ny, r1 * ny, self.planes
        U, G = u.reshape(2, -1), g.reshape(5, -1)
        for k, s in ((slice(0, 4, 3), ny), (slice(1, 3), 1)):     # along x, then y
            lo, hi = max(a, s), min(b, nx * ny - s)
            np.subtract(U[:, lo + s:hi + s], U[:, lo - s:hi - s], out=G[k, lo:hi])
        for i, p, q in ((0, 1, 0), (nx - 1, nx - 1, nx - 2)):    # row i
            if r0 <= i < r1:
                g[0:4:3, i] = 2.0 * (u[:, p] - u[:, q])
        g[1:3, r0:r1, [0, -1]] = 2.0 * (u[:, r0:r1, [1, -1]] - u[:, r0:r1, [0, -2]])

    def stress(self, u, rows):
        """The strip's stresses, times 2h, formed in place over its differences."""
        self.differences(u, rows)
        a, b = rows[0] * u.shape[2], rows[1] * u.shape[2]
        lam, mu, two_mu = (v if isinstance(v, float) else v.reshape(-1)[a:b]
                           for v in (self.lam, self.mu, self.two_mu))
        P = self.planes.reshape(5, -1)[:, a:b]
        np.add(P[0], P[2], out=P[4])
        P[4] *= lam
        P[0:3:2] *= two_mu
        P[0:3:2] += P[4]
        P[1] += P[3]
        P[1] *= mu

    def step(self, u, u_prev, u_next, rows):
        """Leapfrog on the strip: u_next = coef div sigma + (2 u - u_prev),
        with sigma from the last stress of every strip and its divergence
        undivided.  Planes 3 and 4 are spent by then and serve as scratch."""
        (nx, ny), coef = u.shape[1:], self.coef
        lo, hi = max(rows[0] * ny, ny + 1), min(rows[1] * ny, nx * ny - ny - 1)
        s, t = self.planes.reshape(5, -1), self.planes.reshape(5, -1)[3:5, lo:hi]
        out = u_next.reshape(2, -1)[:, lo:hi]
        # d/dx (sxx, sxy) + d/dy (sxy, syy), each a centered difference
        np.subtract(s[:2, lo + ny:hi + ny], s[:2, lo - ny:hi - ny], out=out)
        np.subtract(s[1:3, lo + 1:hi + 1], s[1:3, lo - 1:hi - 1], out=t)
        out += t
        out *= coef if isinstance(coef, float) else coef[lo:hi]
        np.multiply(u.reshape(2, -1)[:, lo:hi], 2.0, out=t)
        t -= u_prev.reshape(2, -1)[:, lo:hi]
        out += t


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
    """Zero the walls of the planar u (2, nx, ny), then drive the source
    patch at amplitude amp."""
    u[:, [0, -1], :] = 0.0
    u[:, :, [0, -1]] = 0.0
    sl, prof, pol = patch
    u[(slice(None),) + sl] = np.multiply.outer(pol, prof * amp)


def energy(state: WavefieldState, mg: MaterialGrid) -> float:
    """Discrete total energy in float64: (1/2) sum (rho |u_t|^2 + sigma(u):sym grad u) h^2."""
    h = mg.grid.h
    v = state.velocity
    kinetic = mg.rho * (v[:, :, 0] ** 2 + v[:, :, 1] ** 2)
    ws = _Workspace(mg, np.float64, state.dt)
    ws.differences(np.ascontiguousarray(np.moveaxis(state.u, -1, 0), dtype=float),
                   (0, mg.grid.nx))
    dxx, dxy, dyy, dyx = ws.planes[:4]      # times 2h
    strain = (mg.lam * (dxx + dyy) ** 2 + 2.0 * mg.mu * (dxx * dxx + dyy * dyy)
              + mg.mu * (dxy + dyx) ** 2) / (4.0 * h * h)      # sigma(u) : grad u
    return 0.5 * float(np.sum(kinetic + strain)) * h * h


@dataclass
class SimulationResult:
    traces: list
    grid: Grid2D
    dt: float
    snapshots: list = field(default_factory=list)   # WavefieldState objects
    meta: dict = field(default_factory=dict)        # the run's data, as written
    counters: dict = field(default_factory=dict)    # the run's cost and health


def receiver_nodes(domain: BoxDomain, grid: Grid2D, receivers):
    """Snap receiver boundary points to (edge, index) pairs on the grid."""
    out = []
    for p in receivers:
        p = np.asarray(p, dtype=float)
        if abs(domain.signed(p)) > grid.h:
            raise ConfigurationError(f"receiver {tuple(p.tolist())} is not on the boundary")
        edge = domain.nearest_edge(p)
        along = 1 - EDGES[edge][0]
        k = int(np.argmin(np.abs(grid.nodes()[along] - p[along])))
        out.append((edge, k, tuple(p)))
    return out


def _row_strips(nx: int, ny: int):
    """Row ranges (r0, r1) covering the nx rows, one per core, as equal as
    rows allow and no more than one per row or _MIN_NODES_PER_STRIP nodes."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = max(1, min(cores or 1, nx, nx * ny // _MIN_NODES_PER_STRIP))
    return [(nx * k // n, nx * (k + 1) // n) for k in range(n)]


def _on_strips(pool, strips, fn, *args):
    """fn(*args, rows) on every strip, the first in this thread and the
    others on the pool; returns once all are done, raising their errors."""
    others = [pool.submit(fn, *args, rows) for rows in strips[1:]]
    for rows in strips[:1]:
        fn(*args, rows)
    for f in others:
        f.result()


def simulate_dn(material: ElasticMaterial, domain: BoxDomain,
                source: BoundarySource, receivers, T: float, h: float,
                dt: float | None = None, snapshot_times=()) -> SimulationResult:
    """Drive the box with a Dirichlet source and record sigma(u).nu traces.

    receivers: list of boundary points (snapped to the nearest boundary
    node).  Returns one TractionTrace per receiver with sample interval dt.
    """
    if not (0.0 < T < math.inf and 0.0 < h < math.inf
            and (dt is None or 0.0 < dt < math.inf)):
        raise ConfigurationError(f"T, h and dt must be finite and positive, "
                                 f"got T = {T}, h = {h}, dt = {dt}")
    nx, ny = (int(round(w / h)) + 1 for w in domain.widths)
    grid = Grid2D(tuple(domain.lo), h, nx, ny)
    mg = sample_material(material, grid)
    if dt is None:
        dt = stable_dt(mg)
    check_cfl(mg, dt)

    rec = receiver_nodes(domain, grid, receivers)
    def flat(sl):       # flat indices of the edge nodes that sl picks out
        return np.arange(nx)[sl[0]] * ny + np.arange(ny)[sl[1]]
    # each receiver's flat node index and outward normal
    idx = np.array([flat(_edge_nodes(e)[0])[k] for e, k, _ in rec], dtype=int)
    nrm_x, nrm_y = np.array([_edge_nodes(e)[1] for e, _, _ in rec]).reshape(-1, 2).T
    n_steps = int(round(T / dt))
    traces = np.zeros((len(rec), n_steps + 1, 2))
    snaps = []
    snap_left = sorted(snapshot_times)

    ws = _Workspace(mg, np.float32, dt)
    patch = _source_patch(grid, source)
    on = flat(patch[0])[patch[1] != 0] // ny       # the rows of nonzero patch nodes
    p_lo, p_hi = (int(on.min()), int(on.max()) + 1) if on.size else (0, 0)  # else u stays 0
    r_lo, r_hi = (int(idx.min()) // ny, int(idx.max()) // ny + 1) if idx.size else (0, nx)
    u_prev, u, u_next = np.zeros((3, 2, nx, ny), np.float32)
    pol_max = float(np.abs(source.polarization).max())
    u_bound, u_max = _BLOW_UP_FACTOR * pol_max, None
    t = 0.0
    _apply_dirichlet(u, patch, float(source.pulse(t)))
    threads, window_cell_steps = len(_row_strips(nx, ny)), 0
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
    with (ThreadPoolExecutor(threads - 1) if threads > 1
          else contextlib.nullcontext()) as pool:
        for n in range(n_steps + 1):
            # Rows past 2 n + 2 of the driven ones are still zero.  With no snapshot
            # pending, rows past m = 2 (n_steps - n) of the receivers' go unstepped:
            # sigma^k reads u^k one row out, which read sigma^(k-1) one row further,
            # so the traces from step n on need sigma^n within m rows and u^n within
            # m + 1, exact after a step on the rows within m (m - 1 would not do).
            m = nx if snap_left else 2 * (n_steps - n)
            a, b = max(0, p_lo - 2 * n - 2, r_lo - m), min(nx, p_hi + 2 * n + 2, r_hi + m)
            strips = [(a + r0, a + r1) for r0, r1 in _row_strips(b - a, ny)] if a < b else []
            _on_strips(pool, strips, ws.stress, u)     # none: the receivers' sigma stays 0
            sxx, sxy, syy = ws.sigma.reshape(3, -1)[:, idx].astype(float) / (2.0 * h)
            traces[:, n, 0] = sxx * nrm_x + sxy * nrm_y
            traces[:, n, 1] = sxy * nrm_x + syy * nrm_y
            while snap_left and t >= snap_left[0] - 0.5 * dt:
                snaps.append(WavefieldState(np.moveaxis(u, 0, -1).copy(),
                                            np.moveaxis(u_prev, 0, -1).copy(), t, grid, dt))
                snap_left.pop(0)
            if n == n_steps:
                break
            _on_strips(pool, strips, ws.step, u, u_prev, u_next)
            window_cell_steps += max(b - a, 0) * ny
            t += dt
            _apply_dirichlet(u_next, patch, float(source.pulse(t)))
            u_prev, u, u_next = u, u_next, u_prev
            # max|u| by two reductions (no full-grid temporary); a NaN fails too
            if (n + 1) % _BLOW_UP_CHECK_STEPS == 0:
                u_max = float(np.maximum(u.max(), -u.min()))
                if not u_max <= u_bound:
                    raise NumericalError(f"max |u| = {u_max:.3g} exceeds {u_bound:.3g} "
                                         f"at step {n + 1} (t = {t:.6g}); the scheme blew up")

    out = [TractionTrace(rec[r][2], dt, traces[r]) for r in range(len(rec))]
    limit = math.sqrt(2.0) * h / mg.cp_max   # the derived stability limit
    meta = {"grid": {"nx": nx, "ny": ny, "h": h}, "dt": dt, "steps": n_steps,
            "cfl_limit": limit,
            "source": {"edge": source.edge, "center": source.center,
                       "width": source.width, "f0": source.f0, "t0": source.delay,
                       "polarization": list(source.polarization)}}
    counters = {"steps": n_steps, "cell_steps": nx * ny * n_steps,
                "window_cell_steps": window_cell_steps, "dt": dt,
                "dt_over_limit": dt / limit,
                "max_u_over_pol": u_max / pol_max if u_max is not None and pol_max else None,
                "threads": threads}
    return SimulationResult(out, grid, dt, snaps, meta, counters)
