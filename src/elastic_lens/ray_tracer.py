"""Bicharacteristics of H = c^2 |xi|^2 / 2 and the scattering relation.

The flow is

    dx/dt  =  c^2 xi,        dxi/dt = -c |xi|^2 grad c,

integrated with classical RK4.  On trajectories normalized to H = 1/2 the
parameter t is the metric length in c^-2 dx^2, i.e. the travel time, and
|dx/dt| = c.  Works in 2 and 3 dimensions.

A batch of n rays is one (2d, n) array, rows x_1..x_d, xi_1..xi_d.  The stages
call the field's unchecked ``_eval``; each step's stage points and end are
checked once.  The flow at the end is the next step's first stage (FSAL) and
an embedded third-order error estimate (Hairer, Norsett & Wanner, ODEs I, II.4).
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ResourceError
from .model_core import Domain, SpeedField

THETA_MIN = math.radians(2.0)   # entries this close to tangent are refused
DT, T_MAX = 1e-2, 50.0          # DT: the largest step of the scattering relation
RK4_TOL = 1e-7                  # a step whose error estimate exceeds this is halved
HARD_STEP_CAP = 5_000_000


@dataclass(frozen=True)
class BoundaryDirection:
    """Boundary point with Euclidean-unit direction; the g-unit vector is c(x) v."""

    x: tuple
    v: tuple

    def __post_init__(self):
        n = np.linalg.norm(self.v)
        if not (np.all(np.isfinite(self.x)) and abs(n - 1.0) <= 1e-9):
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


def _rhs(speed, y):
    """Flow and speeds at the columns of y = [x; xi], unchecked: the caller checks."""
    d = len(y) // 2
    xi = y[d:]
    c, g = speed._eval(y[:d])
    g *= -c * np.add.reduce(xi * xi, axis=0)      # _eval's g is new: scaled in place
    return np.concatenate((c * c * xi, g)), c


def _rk4_step(speed, y, dt, k1):
    """One RK4 step of the columns of y = [x; xi] (checked) by dt from the flow k1 at y: the
    end and the flow k5 there, both checked, and the error estimate dt/6 max|k4 - k5|."""
    P = np.empty((4, *y.shape))     # the stage points and the end
    k2, c2 = _rhs(speed, np.add(y, 0.5 * dt * k1, out=P[0]))
    k3, c3 = _rhs(speed, np.add(y, 0.5 * dt * k2, out=P[1]))
    k4, c4 = _rhs(speed, np.add(y, dt * k3, out=P[2]))
    P[3] = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    k5, c5 = _rhs(speed, P[3])
    speed._check(P[:, :len(y) // 2], np.concatenate((c2, c3, c4, c5)))
    return P[3], k5, dt / 6.0 * np.abs(k4 - k5).max(axis=0)


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
    f = _rhs(speed, y[0])[0]
    for k in range(n_steps):
        y[k + 1], f, _ = _rk4_step(speed, y[k], dt, f)
    return y[:, :d].transpose(0, 2, 1), y[:, d:].transpose(0, 2, 1)


def scattering_relation(speed: SpeedField, domain: Domain,
                        entry: BoundaryDirection, t_max: float, dt: float) -> LensRecord:
    """Trace one ray from a strictly inward boundary direction to its exit."""
    return scattering_relations(speed, domain, [entry], t_max, dt)[0]


def scattering_relations(speed: SpeedField, domain: Domain, entries, t_max: float,
                         dt: float, counters: dict | None = None) -> list[LensRecord]:
    """Trace rays from strictly inward boundary directions to their exits.

    All rays advance together with a shared time t; a ray leaves the active
    set at the step that first takes it from inside the domain to outside.
    The crossing inside that step is located by bisection (to 1e-12
    relative) on the step's cubic Hermite interpolant, built from the phase
    points and the flow at both ends, and the exit phase point is read off
    that cubic (exact on straight rays).  A ray may exit within its first
    step.  Entries within THETA_MIN of tangent, or whose first move
    x + 1e-9 v leaves the domain (at a corner), are refused (TANGENT_ENTRY);
    rays still inside at t_max are TRAPPED.  A step is at most dt, halved while
    its error estimate on a ray staying inside exceeds RK4_TOL (as across a jump
    in grad c, where fixed steps are first order).  `counters`, when given,
    receives the RK4 steps taken and rejected, the largest accepted estimate,
    the _rhs calls (one, and four a step tried) and the count of each RayStatus.
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

    traced = np.nonzero(steep)[0]
    d = x0.shape[1]
    y = np.concatenate((x0[traced].T, (v0[traced] / speed.eval(x0[traced])[0][:, None]).T))
    n = len(traced)
    # phase points and flow at both ends, step and time of each ray's exit step
    ends, step_s, t_s = np.empty((4, *y.shape)), np.empty(n), np.full(n, math.nan)
    active, k1 = np.arange(n), _rhs(speed, y)[0]
    t, h, tried, rejected, err_max = 0.0, dt, 0, 0, 0.0
    while active.size and t < t_max:
        step, tried = min(h, t_max - t), _step_count(tried + 1)
        y_new, k5, err = _rk4_step(speed, y, step, k1)
        out = domain.signed(y_new[:d].T) > 0.0
        err = err.max(initial=0.0, where=~out)      # an exit step is the exit search's
        if err > RK4_TOL:
            h, rejected = 0.5 * step, rejected + 1
            continue
        if np.count_nonzero(out):
            k, keep = active[out], ~out
            ends[:, :, k] = y[:, out], y_new[:, out], k1[:, out], k5[:, out]
            step_s[k], t_s[k] = step, t
            active, y_new, k5 = active[keep], y_new[:, keep], k5[:, keep]
        y, k1, t, h, err_max = y_new, k5, t + step, dt, max(err_max, err)

    exited = np.nonzero(~np.isnan(t_s))[0]
    if exited.size:
        y_x, f = _exit_on_cubic(domain, *ends[:, :, exited], step_s[exited])
        ell = t_s[exited] + f * step_s[exited]
        x_e, xi_e = y_x[:d].T, y_x[d:].T
        v_out = xi_e / np.linalg.norm(xi_e, axis=1, keepdims=True)
        for j, k in enumerate(exited):
            i = traced[k]
            records[i] = LensRecord(entries[i],
                                    BoundaryDirection(tuple(x_e[j]), tuple(v_out[j])),
                                    float(ell[j]), RayStatus.EXITED)
    if counters is not None:
        counters.update(rk4_steps=tried - rejected, rejected_steps=rejected,
                        max_step_error=err_max, rhs_calls=1 + 4 * tried,
                        ray_status=dict(Counter(r.status.value for r in records)))
    return records


def _exit_on_cubic(domain, y0, y1, f0, f1, dt):
    """Phase points on the boundary and fractions f of the exit steps (the
    columns y0 to y1, with the flow f0 and f1 there, length dt per ray) where
    b changes sign, on each step's cubic Hermite interpolant."""
    d = len(y0) // 2
    dy0, dy1 = dt * f0, dt * f1
    a2, a3 = 3 * (y1 - y0) - 2 * dy0 - dy1, 2 * (y0 - y1) + dy0 + dy1

    def cubic(f):
        return y0 + f * (dy0 + f * (a2 + f * a3))

    # the bracket [hi - width, hi] halves exactly each iteration: 2**-40 < 1e-12
    hi, width = np.ones(y0.shape[1]), 1.0
    for _ in range(40):
        width *= 0.5
        mid = hi - width      # exact: hi is a multiple of 2 * width
        hi = np.where(domain.signed(cubic(mid)[:d].T) > 0.0, mid, hi)
    y_hi = cubic(hi)
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


def entry_at(domain, s: float, angle: float) -> BoundaryDirection:
    """Inward boundary direction at arclength s, at `angle` from the inward normal."""
    x = domain.boundary_point(s)
    nu = domain.normal(x)
    tang = np.array([-nu[1], nu[0]])
    v = -math.cos(angle) * nu + math.sin(angle) * tang
    return BoundaryDirection(tuple(x), tuple(v / np.linalg.norm(v)))


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

