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
reads them, so they keep stale values).  It steps the rest a tile of about
_TILE_NODES nodes at a time: the tile's stresses, with one halo row each
side, go to a small buffer of its lane, and u^(n+1) is written over
u^(n-1), which each node reads only at itself.  So a run holds two
displacement arrays and no full-grid stress, and the tiles of one step
share nothing they write.  On large grids each core steps one strip of
rows, the first in the caller and each other in a process forked per run
(threads would queue on the GIL), on u^n, u^(n-1) and the receivers'
stresses in a shared mapping; each step the caller pipes each process its
strip and waits for the replies.  Every node sees the same float32
operations in any tiles and strips, so the output depends on neither the
tile size nor the core count.  The source pulse is evaluated once per run,
and a run whose arrays would need more than MAX_RUN_BYTES is refused
(ResourceError) before they are allocated.

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
import functools
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, ResourceError
from .model_core import EDGES, BoxDomain, ConstantField, ElasticMaterial, Grid2D

CFL_SAFETY = 1.3            # dt <= CFL_SAFETY h / c_bound: 92 % of the limit sqrt(2)
_BLOW_UP_CHECK_STEPS = 64   # simulate_dn checks u for blow-up this often:
_BLOW_UP_FACTOR = 1e3       # max|u| over this times max|pol| (stable runs: < 1.3)
_MIN_NODES_PER_STRIP = 30_000    # two lanes break even at 40-50k nodes, win from ~57k
_SAMPLE_BLOCK_NODES = 32_768     # sample_material evaluates this many nodes at a time, or a row
_TILE_NODES = 1 << 16            # a step's tile holds this many nodes, or a row: 68 rows on A3
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
        if not (len(self.polarization) == 2 and self.width > 0 and self.f0 > 0 and all(
                map(math.isfinite, (self.center, self.width, self.f0, self.delay,
                                    *self.polarization)))):
            raise ConfigurationError(f"source settings must be finite, width, f0 > 0, "
                                     f"polarization two numbers: {self}")

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
    Python floats for constant fields."""

    grid: Grid2D
    lam: np.ndarray | float
    mu: np.ndarray | float
    rho: np.ndarray | float

    @functools.cached_property
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
    """The fields at the nodes: a ConstantField as its float (the same products
    at less cost), its bounds checked at the grid's two corners; any other field
    a block of rows at a time, as component rows (2, rows ny) eval reads contiguously."""
    xs, ys = grid.nodes()
    rows = max(1, _SAMPLE_BLOCK_NODES // len(ys))
    def sample(f):
        if isinstance(f, ConstantField):
            f.eval(np.array([[xs[0], ys[0]], [xs[-1], ys[-1]]]))
            return f.c
        v = np.empty((len(xs), len(ys)))
        for r in range(0, len(xs), rows):
            nodes = np.array(np.meshgrid(xs[r:r + rows], ys, indexing="ij")).reshape(2, -1)
            v[r:r + rows] = f.eval(nodes.T)[0].reshape(-1, len(ys))
        return v
    return MaterialGrid(grid, *map(sample, (material.lam, material.mu, material.rho)))


def stable_dt(mg: MaterialGrid) -> float:
    return CFL_SAFETY * mg.grid.h / mg.c_bound


def check_cfl(mg: MaterialGrid, dt: float):
    limit = stable_dt(mg)
    if dt > limit * (1 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt!r} violates CFL: must be <= {CFL_SAFETY} h / c_bound = {limit!r}")


class _Workspace:
    """The arrays of one FD run: lam, mu, 2 mu and the update coefficient as
    flat arrays in `dtype`, a constant one a read-only stride-0 view; the
    receivers' flat node indices, sorted; in one zeroed mapping that forked
    lanes share, pair (2, 2, nx, ny) for u^(n-1) and u^n, and sig (steps + 1,
    3, receivers) for the receivers' stresses (zero while no tile holds them);
    and a tile buffer (5, rows, ny), a lane's own, its planes [dux/dx, dux/dy,
    duy/dy, duy/dx, lam div u], the first three turned into sxx, sxy, syy in
    place.  A node gets the same operations in any tiles and lanes."""

    def __init__(self, mg: MaterialGrid, dtype, dt: float, receivers, steps: int):
        import mmap     # loaded by runs only, as the CLI's import time counts
        nx, ny, h = mg.grid.nx, mg.grid.ny, mg.grid.h
        def flat(v):    # every kernel slices a field alike, a constant as an array
            return (np.broadcast_to(dtype(v), (nx * ny,)) if isinstance(v, float)
                    else v.astype(dtype).reshape(-1))
        self.lam, self.mu, self.two_mu = flat(mg.lam), flat(mg.mu), flat(2.0 * mg.mu)
        self.coef = flat(dt * dt / (4.0 * h * h * mg.rho))
        self.receivers, k, m = receivers, 4 * nx * ny, 3 * (steps + 1) * len(receivers)
        mem = np.frombuffer(mmap.mmap(-1, (k + m) * np.dtype(dtype).itemsize), dtype)
        self.pair, self.sig = mem[:k].reshape(2, 2, nx, ny), mem[k:].reshape(steps + 1, 3, -1)
        self.tile_rows = min(nx, max(1, _TILE_NODES // ny))
        self.buffer = np.empty((5, min(self.tile_rows + 2, nx), ny), dtype)

    def strip(self, u, u_prev, n, rows):
        """Step n on the rows r0 to r1 - 1, rows = (r0, r1), a tile at a time."""
        for r in range(rows[0], rows[1], self.tile_rows):
            self.tile(u, u_prev, n, (r, min(r + self.tile_rows, rows[1])))

    def tile(self, u, u_prev, n, rows):
        """Step n on a tile of rows: the stresses of the planar u (2, nx, ny),
        times 2h, on its rows and one halo row each side into the buffer, the
        receivers' among its rows into sig[n]; then, unless n is the last
        step, u_prev becomes u^(n+1) on the tile's flat nodes from (1, 1) to
        (nx-2, ny-2): interior nodes and, between them, wall nodes that
        _apply_dirichlet overwrites.  u_prev is read only at its own node."""
        (r0, r1), (nx, ny) = rows, u.shape[1:]
        h0, h1 = max(r0 - 1, 0), min(r1 + 1, nx)
        a, b, U, G = h0 * ny, h1 * ny, u.reshape(2, -1), self.buffer[:, :h1 - h0]
        g = G.reshape(5, -1)        # g[:, i] holds flat node a + i
        # differences u[i+1] - u[i-1] along the flattened arrays (so along y
        # they wrap from row to row at the ends), then one-sided 2 (u_p - u_q) at walls
        for k, s in ((slice(0, 4, 3), ny), (slice(1, 3), 1)):     # along x, then y
            lo, hi = max(a, s), min(b, nx * ny - s)
            np.subtract(U[:, lo + s:hi + s], U[:, lo - s:hi - s], out=g[k, lo - a:hi - a])
        for i, p, q in ((0, 1, 0), (nx - 1, nx - 1, nx - 2)):    # row i
            if h0 <= i < h1:
                np.subtract(u[:, p], u[:, q], out=G[0:4:3, i - h0])
                G[0:4:3, i - h0] *= 2.0
        walls = G[1:3, :, ::ny - 1]     # columns 0 and ny - 1 from columns (1, 0), (ny-1, ny-2)
        np.subtract(u[:, h0:h1, 1::ny - 2], u[:, h0:h1, ::ny - 2], out=walls)
        walls *= 2.0
        # the stresses, formed in place over the differences
        np.add(g[0], g[2], out=g[4])
        g[4] *= self.lam[a:b]
        g[0:3:2] *= self.two_mu[a:b]
        g[0:3:2] += g[4]
        g[1] += g[3]
        g[1] *= self.mu[a:b]
        i0, i1 = self.receivers.searchsorted((r0 * ny, r1 * ny))
        if i0 < i1:
            self.sig[n, :, i0:i1] = g[:3, self.receivers[i0:i1] - a]
        # u^(n+1) = coef (d/dx (sxx, sxy) + d/dy (sxy, syy)) + (2 u - u_prev),
        # each difference centered: 2 u - u_prev goes over u_prev, d/dx into
        # the spent planes 3 and 4, d/dy of sxy over sxx once d/dx has read
        # it, then d/dy of syy over sxy
        lo, hi = max(r0 * ny, ny + 1) - a, min(r1 * ny, nx * ny - ny - 1) - a
        if n + 1 == len(self.sig) or lo >= hi:
            return
        t, out = g[3:5, lo:hi], u_prev.reshape(2, -1)[:, a + lo:a + hi]
        np.multiply(U[:, a + lo:a + hi], 2.0, out=t)
        np.subtract(t, out, out=out)
        np.subtract(g[:2, lo + ny:hi + ny], g[:2, lo - ny:hi - ny], out=t)
        np.subtract(g[1, lo + 1:hi + 1], g[1, lo - 1:hi - 1], out=g[0, lo:hi])
        np.subtract(g[2, lo + 1:hi + 1], g[2, lo - 1:hi - 1], out=g[1, lo:hi])
        t += g[:2, lo:hi]
        t *= self.coef[a + lo:a + hi]
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
    cfl_limit: float         # sqrt(2) h / c_bound, the derived stability limit
    counters: dict = field(default_factory=dict)    # the run's cost and health

    @property
    def meta(self):     # the run's size, as perfbench/tracing.py reads it
        return {"grid": {"nx": self.grid.nx, "ny": self.grid.ny}, "steps": self.traces.shape[1] - 1}


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


def check_size(nodes, steps, receivers):
    """ResourceError unless the run's arrays fit in MAX_RUN_BYTES: about 56 bytes
    a node (u^n and u^(n-1) in float32, 16; lam, mu, 2 mu and the update
    coefficient in float32, 16; the float64 samples of lam, mu and rho, 24),
    48 a step (the float64 times and pulse, and the pulse's temporaries) and
    96 a step and receiver (the float32 stresses, 12, the float64 traces, 16,
    and their CSV rows).  The 'about' is each lane's tile buffer: 20 bytes
    a node of a tile and its two halo rows, at most 20 (_TILE_NODES + 2 ny)."""
    need = nodes * 56 + (steps + 1) * (48 + 96 * receivers)
    if not need <= MAX_RUN_BYTES:      # inf fails too
        raise ResourceError(f"the run would need about {need / 2**30:.3g} GiB, over the "
                            f"cap of {MAX_RUN_BYTES / 2**30:g} GiB; raise h, lower T or "
                            "use fewer receivers")


def _row_strips(nx: int, ny: int, cores: int):
    """Row ranges (r0, r1) covering the nx rows, one per core, as equal as
    rows allow and no more than one per row or _MIN_NODES_PER_STRIP nodes;
    one where there is no core to pin a forked lane to."""
    n = max(1, min(cores, nx, nx * ny // _MIN_NODES_PER_STRIP))
    return [(nx * k // n, nx * (k + 1) // n) for k in range(n)]


def _this_cpu():
    """The CPU this process runs on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except OSError:
        return None


def _fork_lane(ws: _Workspace, cpu, inherited):
    """(pid, go, done) of a lane forked onto `cpu`: for each (n, r0, r1) piped
    to go it steps n on rows r0 to r1 - 1 and answers a zero byte, or its
    error, on done.  It closes the `inherited` fds and leaves by os._exit
    only.  Pinned, it is not woken onto the caller's CPU, where a scheduler
    may keep it (measured: all 652 steps of a 401 x 401 run, no speed-up)."""
    (go_in, go), (done, done_out) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError as e:
        for fd in (go_in, go, done, done_out):
            os.close(fd)
        raise ResourceError(f"cannot fork a process for a row strip: {e}") from e
    if pid == 0:
        try:
            for fd in (*inherited, go, done):
                os.close(fd)
            with contextlib.suppress(OSError):     # a core the affinity no longer holds
                os.sched_setaffinity(0, {cpu})
            while message := os.read(go_in, 24):
                n, r0, r1 = struct.unpack("3q", message)
                ws.strip(ws.pair[(n + 1) % 2], ws.pair[n % 2], n, (r0, r1))    # u^n, u^(n-1)
                os.write(done_out, b"\0")
        except BaseException as e:
            os.write(done_out, f"{type(e).__name__}: {e}".encode(errors="replace")[:512])
        finally:
            os._exit(0)
    os.close(go_in)
    os.close(done_out)
    return pid, go, done


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
    check_size(math.prod(c + 1 for c in cells), 0, 0)
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
    check_size(nx * ny, T / dt, len(rec))
    n_steps = int(round(T / dt))
    times, amps = _pulse_at_steps(source, dt, n_steps)
    order = np.argsort(idx, kind="stable")      # sig's columns hold the receivers in node order
    # the cores a forked lane may be pinned to (os.sched_setaffinity), read once a run
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    lanes = len(_row_strips(nx, ny, len(cores)))
    ws = _Workspace(mg, np.float32, dt, idx[order], n_steps)
    patch = _source_patch(grid, source)
    on = flat(patch[0])[patch[1] != 0] // ny       # the rows of nonzero patch nodes
    p_lo, p_hi = (int(on.min()), int(on.max()) + 1) if on.size else (0, 0)  # else u stays 0
    r_lo, r_hi = (int(idx.min()) // ny, int(idx.max()) // ny + 1) if idx.size else (0, nx)
    u_prev, u = ws.pair
    pol_max = float(np.abs(source.polarization).max())
    u_bound, u_max = _BLOW_UP_FACTOR * pol_max, None
    _apply_dirichlet(u, patch, amps[0])
    array_bytes = lanes * ws.buffer.nbytes + sum(
        a.nbytes for a in (ws.pair, times, amps, ws.sig, ws.lam, ws.mu, ws.two_mu, ws.coef)
        if a.strides[0])
    window_cell_steps, lane_wait, loop_start = 0, 0.0, time.perf_counter()
    workers = []        # (pid, go, done) of each lane past the first
    try:
        cpus = sorted(cores - {_this_cpu()}) if lanes > 1 else []
        for cpu in cpus[:lanes - 1]:        # the other lanes, each on a core but this one's
            workers.append(_fork_lane(ws, cpu, [fd for _, *fds in workers for fd in fds]))
        for n in range(n_steps + 1):
            # Rows past 2 n + 2 of the driven ones are still zero.  Rows past
            # m = 2 (n_steps - n) of the receivers' go unstepped: sigma^k reads
            # u^k one row out, which read sigma^(k-1) one row further, so the
            # traces from step n on need sigma^n within m rows and u^n within
            # m + 1, exact after a step on the rows within m (m - 1 would not do).
            m = 2 * (n_steps - n)
            a, b = max(0, p_lo - 2 * n - 2, r_lo - m), min(nx, p_hi + 2 * n + 2, r_hi + m)
            # at most one strip a lane, the first in this process; none: sig[n] stays 0
            strips = [(a + r0, a + r1) for r0, r1 in _row_strips(b - a, ny, lanes)] if a < b else []
            for (_, go, _), rows in zip(workers, strips[1:]):
                os.write(go, struct.pack("3q", n, *rows))
            if strips:
                ws.strip(u, u_prev, n, strips[0])
            wait_start = time.perf_counter()
            for (_, _, done), _ in zip(workers, strips[1:]):
                reply = os.read(done, 512)
                if reply != b"\0":
                    raise NumericalError("a row strip's process failed: "
                                         + (reply.decode(errors="replace") or "it exited"))
            lane_wait += time.perf_counter() - wait_start
            if n == n_steps:
                break
            window_cell_steps += max(b - a, 0) * ny
            _apply_dirichlet(u_prev, patch, amps[n + 1])
            u_prev, u = u, u_prev
            # max|u| by two reductions (no full-grid temporary); a NaN fails too
            if (n + 1) % _BLOW_UP_CHECK_STEPS == 0:
                u_max = float(np.maximum(u.max(), -u.min()))
                if not u_max <= u_bound:
                    raise NumericalError(f"max |u| = {u_max:.3g} exceeds {u_bound:.3g} at step "
                                         f"{n + 1} (t = {times[n + 1]:.6g}); the scheme blew up")
    finally:        # every lane waits on its go pipe, or has failed
        for pid, go, done in workers:
            os.kill(pid, 9)     # SIGKILL
            os.close(go)
            os.close(done)
            os.waitpid(pid, 0)
    loop_seconds = time.perf_counter() - loop_start
    traces = np.empty((len(idx), n_steps + 1, 2))
    for j, k in enumerate(order):   # a receiver at a time: no run-sized float64 temporaries
        sxx, sxy, syy = ws.sig[:, :, j].T.astype(float) / (2.0 * h)
        traces[k, :, 0] = sxx * nrm_x[k] + sxy * nrm_y[k]
        traces[k, :, 1] = sxy * nrm_x[k] + syy * nrm_y[k]

    counters = {"steps": n_steps, "cell_steps": nx * ny * n_steps,
                "window_cell_steps": window_cell_steps, "dt": dt,
                "dt_over_limit": dt / limit,
                "max_u_over_pol": u_max / pol_max if u_max is not None and pol_max else None,
                "processes": 1 + len(workers), "tile_rows": ws.tile_rows,
                "array_bytes": array_bytes, "step_loop_seconds": loop_seconds,
                "lane_wait_seconds": lane_wait}
    return SimulationResult(traces, grid, dt, limit, counters)
