"""Bicharacteristics of H = c^2 |xi|^2 / 2 and the scattering relation.

The flow is

    dx/dt  =  c^2 xi,        dxi/dt = -c |xi|^2 grad c,

integrated with the Dormand-Prince 5(4) pair (Hairer, Norsett & Wanner, ODEs I,
II.4-II.6).  On trajectories normalized to H = 1/2 the parameter t is the metric
length in c^-2 dx^2, i.e. the travel time, and |dx/dt| = c.  Works in 2 and 3 dimensions.

A batch of n rays is one (2d, n) array, rows x_1..x_d, xi_1..xi_d, each ray
with its own time and step.  The stages call the field's unchecked ``_eval``;
each step's stage points and end are checked once.  The flow at the end is the
next step's first stage (FSAL), so a step costs six flow evaluations.  A step
keeps its fifth order where c is smooth along it, so steps end where it is not:
at a turn of c along the ray and on the field's ``knots``, the radii where a
profile's third derivative jumps.  A field that names no knots is stepped to
the tighter KNOTLESS_TOL.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ResourceError
from .model_core import COLLAR, Domain, SpeedField

THETA_MIN = math.radians(2.0)   # entries this close to tangent are refused
DT, T_MAX = 5e-2, 50.0          # DT: the largest step of the scattering relation
DP5_TOL = 1e-8                  # a ray's step whose error estimate exceeds this is retried,
KNOTLESS_TOL = 1e-9             # or this on a field that names no knots: a kink may lie in a step
TURN = 1e-4                     # a step past a turn of c or a knot starts or ends this near it
HARD_STEP_CAP = 5_000_000

# Dormand-Prince 5(4): row s < 5 weighs the flows k_1..k_(s+1) into stage s + 2, row 5 (b)
# into the end, 6 (b - b*, b* the embedded 4th order) into the error and 7 into the dense output
_DP5 = np.array([
    [1 / 5, 0, 0, 0, 0, 0, 0], [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    [71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
    [-12715105075 / 11282082432, 0, 87487479700 / 32700410799, -10690763975 / 1880347072,
     701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423]])


@dataclass(frozen=True)
class BoundaryDirection:
    """Boundary point with Euclidean-unit direction; the g-unit vector is c(x) v."""

    x: tuple
    v: tuple

    def __post_init__(self):
        n = math.hypot(*self.v)
        if not (all(map(math.isfinite, self.x)) and abs(n - 1.0) <= 1e-9):
            raise PreconditionError(f"need a finite point and a Euclidean-unit "
                                    f"direction, got x = {self.x}, |v| = {n}")


class RayStatus(enum.Enum):
    EXITED = "Exited"
    TRAPPED = "Trapped"
    TANGENT_ENTRY = "TangentEntry"


@dataclass(frozen=True)
class LensRecord:
    entry: BoundaryDirection
    exit: BoundaryDirection | None
    ell: float
    status: RayStatus


def hamiltonian(speed: SpeedField, x, xi):
    """H = c^2 |xi|^2 / 2 at the rows of x and xi, shape (..., d) -> (...)."""
    x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
    c = speed.eval(x.reshape(-1, x.shape[-1]))[0].reshape(x.shape[:-1])
    return 0.5 * c * c * np.add.reduce(xi * xi, axis=-1)


def _rhs(speed, y, out):
    """The flow at the columns of y = [x; xi] into out; returns the speeds. Unchecked."""
    d = len(y) // 2
    xi = y[d:]
    c, g = speed._eval(y[:d])
    np.multiply(c * c, xi, out=out[:d])
    np.multiply(g, -c * np.add.reduce(xi * xi, axis=0), out=out[d:])
    return c


def _dp5_step(speed, y, h, k1):
    """One Dormand-Prince step of the columns of y = [x; xi] (checked) by h (one a column,
    or a scalar) from the flow k1 at y: the end, the seven flows (k_7 at the end), the speeds
    at the end and the error estimates h max|(b - b*) k|, the stages and end checked."""
    P, K, C = np.empty((6, *y.shape)), np.empty((7, *y.shape)), np.empty((6, y.shape[1]))
    K[0], flat = k1, K.reshape(7, -1)
    for s in range(6):
        dy = np.dot(_DP5[s, :s + 1], flat[:s + 1]).reshape(y.shape)
        C[s] = _rhs(speed, np.add(y, h * dy, out=P[s]), K[s + 1])
    speed._check(P[:, :len(y) // 2], C)
    return P[5], K, C[5], h * np.abs(np.dot(_DP5[6], flat)).reshape(y.shape).max(axis=0)


def _step_count(n_steps):
    if n_steps > HARD_STEP_CAP:
        raise ResourceError(f"{n_steps} steps exceed the cap of {HARD_STEP_CAP}")
    return n_steps


def integrate_bicharacteristic(speed: SpeedField, x0, xi0, t_max: float,
                               dt: float):
    """Sample the flow from the starts (rows of x0, xi0, shape (n, d)) at
    times k dt up to t_max; every start must satisfy H = 1/2.  Returns x and
    xi of shape (steps + 1, n, d), row 0 being the starts."""
    if not (0.0 < dt < math.inf and 0.0 < t_max < math.inf):
        raise PreconditionError(f"dt and t_max must be finite and positive, got {dt}, {t_max}")
    x0, xi0 = np.asarray(x0, dtype=float), np.asarray(xi0, dtype=float)
    h0 = hamiltonian(speed, x0, xi0)
    k = int(np.argmax(np.abs(h0 - 0.5)))
    if abs(h0[k] - 0.5) > 1e-10:
        raise PreconditionError(f"starts must be g-unit (H = 1/2), got H = {h0[k]} "
                                f"at row {k}")
    n_steps = _step_count(int(math.floor(t_max / dt + 1e-12)))
    d = x0.shape[1]
    y = np.empty((n_steps + 1, 2 * d, len(x0)))
    y[0] = np.concatenate((x0.T, xi0.T))
    K = np.empty((7, 2 * d, len(x0)))
    _rhs(speed, y[0], K[6])
    for k in range(n_steps):
        y[k + 1], K, _, _ = _dp5_step(speed, y[k], dt, K[6])
    return y[:, :d].transpose(0, 2, 1), y[:, d:].transpose(0, 2, 1)


def scattering_relation(speed: SpeedField, domain: Domain,
                        entry: BoundaryDirection, t_max: float, dt: float) -> LensRecord:
    """Trace one ray from a strictly inward boundary direction to its exit."""
    return scattering_relations(speed, domain, [entry], t_max, dt)[0]


def scattering_relations(speed: SpeedField, domain: Domain, entries, t_max: float,
                         dt: float, counters: dict | None = None) -> list[LensRecord]:
    """Trace rays from strictly inward boundary directions to their exits.

    Each ray has its own time and step; a pass tries one step on every ray
    still inside, and retries those whose error estimate exceeds tol: DP5_TOL
    on a field that names knots, else KNOTLESS_TOL, as a field that names none
    may have kinks inside a step, where the estimate bounds nothing.  After
    each try a step is scaled by clip(0.9 (tol / err)^(1/5), 0.2, 5),
    up to dt and to COLLAR / (2 c), c the ray's speed: a step moves a ray by
    about c times its length, so no stage point leaves the field's collar.  A
    step in which c along its ray turns is retried to end at the turn unless it
    starts or ends within TURN of it, so the ray's deepest point is evaluated.
    A step that starts and ends on two sides of one of the field's knots (radii
    r = |x|) is retried alike to end at the first knot it crosses, estimated by
    linear interpolation of r, so no step spans a jump of c's third derivative;
    exit steps too, so no exit is found on a dense output across a knot.
    A ray leaves at the first step taken that ends outside the domain, and the
    crossing is located by bisection (to 1e-12 relative) on that step's dense
    output (exact on straight rays).  Entries within THETA_MIN of tangent, or
    whose first move x + 1e-9 v leaves the domain (at a corner), are refused
    (TANGENT_ENTRY); rays still inside at t_max are TRAPPED.  `counters`, when
    given, receives the passes (six _rhs calls each, after one at the entries),
    the ray steps taken and rejected, the drift max |c^2 |xi|^2 - 1| at the exits
    and the count of each RayStatus.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_max < math.inf):
        raise PreconditionError(f"dt and t_max must be finite and positive, got {dt}, {t_max}")
    entries = list(entries)
    x0 = np.array([e.x for e in entries], dtype=float).reshape(-1, domain.dim)
    v0 = np.array([e.v for e in entries], dtype=float).reshape(-1, domain.dim)
    steep = np.add.reduce(v0 * domain.normal(x0), axis=1) <= -math.sin(THETA_MIN)
    steep &= domain.signed(x0 + 1e-9 * v0) < 0.0
    records = [LensRecord(e, None, math.nan, RayStatus.TRAPPED if ok
                          else RayStatus.TANGENT_ENTRY)
               for e, ok in zip(entries, steep)]
    _step_count(int(math.ceil(t_max / dt)))        # a tiny dt is refused before any work

    traced, d, knots = np.nonzero(steep)[0], x0.shape[1], speed.knots
    tol = DP5_TOL if knots.size else KNOTLESS_TOL
    c, n = speed.eval(x0[traced])[0], len(traced)
    y = np.concatenate((x0[traced].T, (v0[traced] / c[:, None]).T))
    # each ray's exit step: its start, end and flows, start time and length
    ends, t_s, h_s = np.empty((9, *y.shape)), np.full(n, math.nan), np.empty(n)
    active, k1, t, h = np.arange(n), np.empty_like(y), np.zeros(n), np.full(n, dt)
    _rhs(speed, y, k1)
    passes = tried = rejected = 0
    while active.size:
        passes, tried = _step_count(passes + 1), tried + active.size
        step = np.minimum(np.minimum(h, 0.5 * COLLAR / c), np.minimum(dt, t_max - t))
        y_new, K, c_new, err = _dp5_step(speed, y, step, k1)
        out, t_new, bad = domain.signed(y_new[:d].T) > 0.0, t + step, err > tol
        h = step * np.maximum(np.minimum(0.9 * (tol / (err + 1e-300)) ** 0.2, 5.0), 0.2)
        # xi . dxi/dt has the sign of -dc/dt: c along a ray turns where it changes sign
        q, q_new = (np.add.reduce(a[d:] * b[d:], axis=0) for a, b in ((y, k1), (y_new, K[6])))
        turn = np.nonzero(q * q_new < 0.0)[0]
        if turn.size:       # a step is retried to end at its turn, and at a knot it crosses
            _end_at(turn, step[turn] * q[turn] / (q[turn] - q_new[turn]), step, bad, h)
        if knots.size:      # r = |x| at the step's ends, taken as linear in between
            r0, r1 = (np.sqrt(np.add.reduce(x * x, axis=0)) for x in (y[:d], y_new[:d]))
            i0, i1 = knots.searchsorted(r0), knots.searchsorted(r1)     # knot intervals
            cross = np.nonzero(i0 != i1)[0]
            if cross.size:  # the first knot crossed: knots[i0] going out, knots[i0 - 1] in
                i0, r0, r1 = i0[cross], r0[cross], r1[cross]
                knot = knots[np.where(r1 > r0, i0, i0 - 1)]
                _end_at(cross, step[cross] * (knot - r0) / (r1 - r0), step, bad, h)
        if np.count_nonzero(bad):           # these rays stay and retry a shorter step
            rejected, out = rejected + int(np.count_nonzero(bad)), out & ~bad
            y_new, K[6] = np.where(bad, y, y_new), np.where(bad, k1, K[6])
            c_new, t_new = np.where(bad, c, c_new), np.where(bad, t, t_new)
        y0, t0, y, k1, c, t = y, t, y_new, K[6], c_new, t_new
        done = out | (t >= t_max)
        if np.count_nonzero(done):
            k, keep = active[out], ~done
            ends[:, :, k] = np.concatenate((y0[None], y[None], K))[:, :, out]
            t_s[k], h_s[k] = t0[out], step[out]
            active, y, k1 = active[keep], y[:, keep], k1[:, keep]
            c, t, h = c[keep], t[keep], h[keep]

    exited = np.nonzero(~np.isnan(t_s))[0]
    y_x, f = _exit_on_dense(domain, ends[:, :, exited], h_s[exited])
    ell, x_e, xi_e = t_s[exited] + f * h_s[exited], y_x[:d].T, y_x[d:].T
    v_out = xi_e / np.linalg.norm(xi_e, axis=1, keepdims=True)
    for i, x, v, e in zip(traced[exited], x_e.tolist(), v_out.tolist(), ell.tolist()):
        records[i] = LensRecord(entries[i], BoundaryDirection(tuple(x), tuple(v)), e,
                                RayStatus.EXITED)
    if counters is not None:
        drift = np.abs(2.0 * hamiltonian(speed, x_e, xi_e) - 1.0).max(initial=0.0)
        counters.update(passes=passes, steps=tried - rejected, rejected_steps=rejected,
                        hamiltonian_drift=float(drift),
                        ray_status=dict(Counter(r.status.value for r in records)))
    return records


def _end_at(rows, to, step, bad, h):
    """Retry the steps of `rows` to end `to` into them, unless within TURN of an end."""
    far = np.minimum(to, step[rows] - to) > TURN
    bad[rows[far]], h[rows[far]] = True, np.minimum(h[rows[far]], to[far])


def _exit_on_dense(domain, ends, h):
    """Phase points on the boundary and fractions f of the exit steps (columns of ends:
    start, end and the seven flows; h long) where b changes sign, on each step's
    fourth-order dense output (Hairer, Norsett & Wanner, ODEs I, II.6)."""
    d, dy = len(ends[0]) // 2, ends[1] - ends[0]
    r2 = h * ends[2] - dy
    r3, r4 = dy - h * ends[8] - r2, h * np.tensordot(_DP5[7], ends[2:], axes=1)

    def at(f):
        return ends[0] + f * (dy + (1.0 - f) * (r2 + f * (r3 + (1.0 - f) * r4)))

    # the bracket [hi - width, hi] halves exactly each iteration: 2**-40 < 1e-12
    hi, width = np.ones(len(h)), 1.0
    for _ in range(40):
        width *= 0.5
        mid = hi - width      # exact: hi is a multiple of 2 * width
        hi = np.where(domain.signed(at(mid)[:d].T) > 0.0, mid, hi)
    y_hi = at(hi)
    # snap the exit points onto the boundary along the outward normal
    x_hi = y_hi[:d].T
    x_hi -= domain.signed(x_hi)[:, None] * domain.normal(x_hi)
    return y_hi, hi


@dataclass(frozen=True)
class LensTableRow:
    entry_s: float
    entry_angle: float
    record: LensRecord


def fan_angles(count: int):
    """count inward angles (from the inward normal), symmetric, tangent-free."""
    lim = math.pi / 2 - THETA_MIN
    return [-lim + (k + 0.5) * 2 * lim / count for k in range(count)]


def entries_at(domain, s: float, angles) -> list[BoundaryDirection]:
    """Inward boundary directions at arclength s, at `angles` from the inward normal,
    from one boundary point and one normal."""
    x = domain.boundary_point(s)
    nu = domain.normal(x)
    a = np.asarray(angles, dtype=float)[:, None]
    v = -np.cos(a) * nu + np.sin(a) * np.array([-nu[1], nu[0]])
    v /= np.sqrt(np.add.reduce(v * v, axis=1))[:, None]
    x = tuple(x)
    return [BoundaryDirection(x, tuple(row)) for row in v.tolist()]


def entry_at(domain, s: float, angle: float) -> BoundaryDirection:
    """Inward boundary direction at arclength s, at `angle` from the inward normal."""
    return entries_at(domain, s, [angle])[0]


def lens_table(speed: SpeedField, domain: Domain, n_points: int, angles: int,
               t_max: float, dt: float) -> list[LensTableRow]:
    """Scattering relation on n_points boundary points x a fan of `angles` angles.

    The boundary points sit at arclength perimeter (i + 1/2) / n_points, so
    none is a corner of a box whose sides are multiples of
    perimeter / n_points.  Rows are ordered boundary parameter major, angle
    minor.  2D domains only.
    """
    if n_points < 1 or angles < 1:
        raise PreconditionError("need at least one boundary point and one angle")
    fan, per = fan_angles(angles), domain.perimeter
    grid = [(per * (i + 0.5) / n_points, a) for i in range(n_points) for a in fan]
    records = scattering_relations(speed, domain,
                                   [entry_at(domain, s, a) for s, a in grid],
                                   t_max, dt)
    return [LensTableRow(s, a, rec) for (s, a), rec in zip(grid, records)]


def exit_angle(domain, rec: LensRecord) -> float:
    """Signed angle of the exit direction from the outward normal."""
    x = np.asarray(rec.exit.x)
    v = np.asarray(rec.exit.v)
    nu = domain.normal(x)
    tang = np.array([-nu[1], nu[0]])
    return math.atan2(float(v @ tang), float(v @ nu))

