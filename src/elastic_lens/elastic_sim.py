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
(still exactly zero) and past 2 (N - n) of the receivers' (no later trace
reads them, so they keep stale values).  On large grids each core steps
one strip of rows; every node sees the same float32 operations in any
strips, so the output does not depend on the core count.  The source pulse
is evaluated once per run, and a run whose arrays would need more than
MAX_RUN_BYTES is refused (ResourceError) before they are allocated.

Stability limit.  Every derivative is the centered difference D0, whose
symbol on exp(i k.x) is i sin(k h)/h.  With constant coefficients the
spatial operator rho^-1 div sigma therefore has the symbol
-(c_s^2 |s|^2 I + (c_p^2 - c_s^2) s s^T), s = (sin(k_x h), sin(k_y h))/h,
whose eigenvalues are -c_p^2 |s|^2 (along s) and -c_s^2 |s|^2 (across it),
with |s|^2 <= 2/h^2.  Leapfrog on u_tt = -w^2 u is stable for dt w < 2,
so the scheme is stable for dt < 2 h / (sqrt(2) c_p) = sqrt(2) h / c_p.
With variable coefficients node i's update reads lam and mu at its four
neighbours and divides by its own rho, so the nodal c_p does not bound it:
across a 10x jump in rho and lam + 2 mu at equal c_p the limit is 1.06
h / c_p, across a 100x jump 0.39 h / c_p.  The bound therefore uses the
operator's Gershgorin row sums, which no eigenvalue exceeds: the
absolute entries of row (u_x, i) sum to [(lam + mu) at i's two
x-neighbours + mu at its two y-neighbours] / (h^2 rho_i), those of row
(u_y, i) likewise with x and y swapped (next to a wall the one-sided
differences drop terms).  MaterialGrid.c_bound is the speed c with
2 c^2 / h^2 the largest of these over the interior nodes: c_p for
constant coefficients, the interior nodes' c_p up to O(h^2) for smooth
ones.  The scheme is stable for dt < sqrt(2) h / c_bound, and the
default and largest accepted step is CFL_SAFETY h / c_bound = 1.3 h /
c_bound, 92 % of that limit.  With the walls and one-sided edge
differences the operator's eigenvalues stay real and >= 0; in float64
the discrete limit is 1.43 to 1.50 h / c_p on a 21 x 21 grid (unit,
near-fluid, mu = 3 lam, and two linear materials) and at least 1.42
h / c_bound on 13 x 13 grids with layered, single-node, wall and
node-by-node contrasts up to 1000x.  Leapfrog's time error offsets part
of the wide stencil's lag, so the larger step brings P picks closer to
the chord time.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, ResourceError
from .model_core import EDGES, BoxDomain, ElasticMaterial, Grid2D

CFL_SAFETY = 1.3            # dt <= CFL_SAFETY h / c_bound: 92 % of the limit sqrt(2)
_BLOW_UP_CHECK_STEPS = 64   # simulate_dn checks u for blow-up this often:
_BLOW_UP_FACTOR = 1e3       # max|u| over this times max|pol| (stable runs: < 1.3)
_MIN_NODES_PER_STRIP = 75_000    # below this a strip costs more in handoff than it saves
_SAMPLE_BLOCK_NODES = 32_768     # sample_material evaluates this many nodes at a time, or a row
MAX_RUN_BYTES = 4 << 30          # simulate_dn refuses a run whose arrays would need more


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
        if not (self.width > 0 and self.f0 > 0 and all(map(math.isfinite, (
                self.center, self.width, self.f0, self.delay, *self.polarization)))):
            raise ConfigurationError(f"source settings must be finite, width, f0 > 0: {self}")

    @property
    def delay(self):
        return self.t0 if self.t0 is not None else 1.5 / self.f0

    def pulse(self, t):
        return ricker(t, self.f0, self.delay)

    def profile(self, s):
        return bump(s, self.center, self.width)


@dataclass
class MaterialGrid:
    """Material fields sampled at the nodes of a grid: (nx, ny) arrays, or
    Python floats for fields that take one value at every node."""

    grid: Grid2D
    lam: np.ndarray | float
    mu: np.ndarray | float
    rho: np.ndarray | float

    @property
    def c_bound(self):
        """The speed c with 2 c^2 / h^2 the step operator's largest Gershgorin
        row sum over the interior nodes (module docstring); c_p if constant."""
        def pair(f, axis):      # f at the two neighbours along axis of each interior node
            if isinstance(f, float):
                return 2.0 * f
            return f[2:, 1:-1] + f[:-2, 1:-1] if axis == 0 else f[1:-1, 2:] + f[1:-1, :-2]
        lam_mu, rho = self.lam + self.mu, self.rho
        x_rows = pair(lam_mu, 0)        # rows (u_x, i), then (u_y, i), times 2 h^2 rho_i
        x_rows += pair(self.mu, 1)
        y_rows = pair(lam_mu, 1)
        y_rows += pair(self.mu, 0)
        rho_i = rho if isinstance(rho, float) else rho[1:-1, 1:-1]
        return float(np.sqrt(np.max(np.maximum(x_rows, y_rows) / (2.0 * rho_i))))


def sample_material(material: ElasticMaterial, grid: Grid2D) -> MaterialGrid:
    """The fields at the nodes, a block of rows at a time; one with a single
    value is a float (the same products as an array of it, at less cost)."""
    xs, ys = grid.nodes()
    rows = max(1, _SAMPLE_BLOCK_NODES // len(ys))
    def sample(f):
        v = c0 = None
        for r in range(0, len(xs), rows):
            nodes = np.stack(np.meshgrid(xs[r:r + rows], ys, indexing="ij"), axis=-1)
            c = f.eval(nodes.reshape(-1, 2))[0].reshape(-1, len(ys))
            c0 = c[0, 0] if c0 is None else c0
            if v is None and np.any(c != c0):
                v = np.full((len(xs), len(ys)), c0)     # the rows before all equal c0
            if v is not None:
                v[r:r + rows] = c
        return float(c0) if v is None else v
    return MaterialGrid(grid, *map(sample, (material.lam, material.mu, material.rho)))


def stable_dt(mg: MaterialGrid) -> float:
    return CFL_SAFETY * mg.grid.h / mg.c_bound


def check_cfl(mg: MaterialGrid, dt: float):
    limit = stable_dt(mg)
    if dt > limit * (1 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt!r} violates CFL: must be <= {CFL_SAFETY} h / c_bound = {limit!r}")


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


def _pulse_at_steps(source: BoundarySource, dt: float, n_steps: int):
    """The steps' times, bitwise those of t += dt (accumulate is sequential), and the pulse."""
    times = np.add.accumulate(np.r_[0.0, np.full(n_steps, dt)])
    return times, source.pulse(times)


def _apply_dirichlet(u, patch, amp: float):
    """Zero the walls of the planar u (2, nx, ny), then drive the source
    patch at amplitude amp."""
    u[:, 0] = u[:, -1] = 0.0
    u[:, :, 0] = u[:, :, -1] = 0.0
    sl, prof, pol = patch
    u[(slice(None),) + sl] = np.multiply.outer(pol, prof * amp)


@dataclass
class SimulationResult:
    traces: np.ndarray       # sigma(u).nu, (receivers, steps + 1, 2), every dt
    grid: Grid2D
    dt: float
    meta: dict = field(default_factory=dict)        # the run's data, as written
    counters: dict = field(default_factory=dict)    # the run's cost and health


def receiver_nodes(domain: BoxDomain, grid: Grid2D, receivers):
    """Snap receiver boundary points to (edge, index) pairs on the grid."""
    out = []
    for p in receivers:
        p = np.asarray(p, dtype=float)
        if not abs(domain.signed(p)) <= grid.h:       # a NaN point fails too
            raise ConfigurationError(f"receiver {tuple(p.tolist())} is not on the boundary")
        edge = domain.nearest_edge(p)
        along = 1 - EDGES[edge][0]
        k = int(np.argmin(np.abs(grid.nodes()[along] - p[along])))
        out.append((edge, k))
    return out


def _check_size(nodes, steps, receivers):
    """ResourceError unless the run's arrays fit in MAX_RUN_BYTES: about 84 bytes
    a node, 48 a step and 96 a step and receiver."""
    need = nodes * 84 + (steps + 1) * (48 + 96 * receivers)
    if not need <= MAX_RUN_BYTES:      # inf fails too
        raise ResourceError(f"the run would need about {need / 2**30:.3g} GiB, over the "
                            f"cap of {MAX_RUN_BYTES / 2**30:g} GiB; raise h or lower T")


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
                dt: float | None = None) -> SimulationResult:
    """Drive the box with a Dirichlet source and record sigma(u).nu traces.

    receivers: list of boundary points (snapped to the nearest boundary
    node).  The traces: one float64 array (receivers, steps + 1, 2), every dt.
    """
    if not (0.0 < T < math.inf and 0.0 < h < math.inf
            and (dt is None or 0.0 < dt < math.inf)):
        raise ConfigurationError(f"T, h and dt must be finite and positive, "
                                 f"got T = {T}, h = {h}, dt = {dt}")
    cells = [float(w) / h for w in domain.widths]
    _check_size(math.prod(c + 1 for c in cells), 0, 0)
    nx, ny = (int(round(c)) + 1 for c in cells)
    grid = Grid2D(tuple(domain.lo), h, nx, ny)
    mg = sample_material(material, grid)
    limit = math.sqrt(2.0) * h / mg.c_bound   # the derived stability limit
    if dt is None:
        dt = stable_dt(mg)
    check_cfl(mg, dt)

    rec = receiver_nodes(domain, grid, receivers)
    def flat(sl):       # flat indices of the edge nodes that sl picks out
        return np.arange(nx)[sl[0]] * ny + np.arange(ny)[sl[1]]
    # each receiver's flat node index and outward normal
    idx = np.array([flat(_edge_nodes(e)[0])[k] for e, k in rec], dtype=int)
    nrm_x, nrm_y = np.array([_edge_nodes(e)[1] for e, _ in rec]).reshape(-1, 2).T
    _check_size(nx * ny, T / dt, len(rec))
    n_steps = int(round(T / dt))
    times, amps = _pulse_at_steps(source, dt, n_steps)
    sig = np.empty((n_steps + 1, 3, len(idx)), np.float32)     # receivers' sigma, times 2h

    ws = _Workspace(mg, np.float32, dt)
    patch = _source_patch(grid, source)
    on = flat(patch[0])[patch[1] != 0] // ny       # the rows of nonzero patch nodes
    p_lo, p_hi = (int(on.min()), int(on.max()) + 1) if on.size else (0, 0)  # else u stays 0
    r_lo, r_hi = (int(idx.min()) // ny, int(idx.max()) // ny + 1) if idx.size else (0, nx)
    u_prev, u, u_next = np.zeros((3, 2, nx, ny), np.float32)
    pol_max = float(np.abs(source.polarization).max())
    u_bound, u_max = _BLOW_UP_FACTOR * pol_max, None
    _apply_dirichlet(u, patch, amps[0])
    threads, window_cell_steps, loop_start = len(_row_strips(nx, ny)), 0, time.perf_counter()
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
    with (ThreadPoolExecutor(threads - 1) if threads > 1
          else contextlib.nullcontext()) as pool:
        for n in range(n_steps + 1):
            # Rows past 2 n + 2 of the driven ones are still zero.  Rows past
            # m = 2 (n_steps - n) of the receivers' go unstepped: sigma^k reads
            # u^k one row out, which read sigma^(k-1) one row further, so the
            # traces from step n on need sigma^n within m rows and u^n within
            # m + 1, exact after a step on the rows within m (m - 1 would not do).
            m = 2 * (n_steps - n)
            a, b = max(0, p_lo - 2 * n - 2, r_lo - m), min(nx, p_hi + 2 * n + 2, r_hi + m)
            strips = [(a + r0, a + r1) for r0, r1 in _row_strips(b - a, ny)] if a < b else []
            _on_strips(pool, strips, ws.stress, u)     # none: the receivers' sigma stays 0
            ws.sigma.reshape(3, -1).take(idx, axis=1, out=sig[n], mode="clip")
            if n == n_steps:
                break
            _on_strips(pool, strips, ws.step, u, u_prev, u_next)
            window_cell_steps += max(b - a, 0) * ny
            _apply_dirichlet(u_next, patch, amps[n + 1])
            u_prev, u, u_next = u, u_next, u_prev
            # max|u| by two reductions (no full-grid temporary); a NaN fails too
            if (n + 1) % _BLOW_UP_CHECK_STEPS == 0:
                u_max = float(np.maximum(u.max(), -u.min()))
                if not u_max <= u_bound:
                    raise NumericalError(f"max |u| = {u_max:.3g} exceeds {u_bound:.3g} at step "
                                         f"{n + 1} (t = {times[n + 1]:.6g}); the scheme blew up")
    loop_seconds = time.perf_counter() - loop_start
    traces = np.empty((len(idx), n_steps + 1, 2))
    for k in range(len(idx)):       # a receiver at a time: no run-sized float64 temporaries
        sxx, sxy, syy = sig[:, :, k].T.astype(float) / (2.0 * h)
        traces[k, :, 0] = sxx * nrm_x[k] + sxy * nrm_y[k]
        traces[k, :, 1] = sxy * nrm_x[k] + syy * nrm_y[k]

    meta = {"grid": {"nx": nx, "ny": ny, "h": h}, "dt": dt, "steps": n_steps,
            "cfl_limit": limit,
            "source": {"edge": source.edge, "center": source.center,
                       "width": source.width, "f0": source.f0, "t0": source.delay,
                       "polarization": list(source.polarization)}}
    counters = {"steps": n_steps, "cell_steps": nx * ny * n_steps,
                "window_cell_steps": window_cell_steps, "dt": dt,
                "dt_over_limit": dt / limit,
                "max_u_over_pol": u_max / pol_max if u_max is not None and pol_max else None,
                "threads": threads, "step_loop_seconds": loop_seconds}
    return SimulationResult(traces, grid, dt, meta, counters)
