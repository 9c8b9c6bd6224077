"""Bicharacteristics of H = c^2 |xi|^2 / 2 and the scattering relation.

The flow is

    dx/dt  =  c^2 xi,        dxi/dt = -c |xi|^2 grad c,

integrated with classical fixed-step RK4.  On trajectories normalized to
H = 1/2 the parameter t is the metric length in c^-2 dx^2, i.e. the travel
time, and |dx/dt| = c.  Works in 2 and 3 dimensions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ResourceError
from .model_core import Domain, SpeedField

THETA_MIN = math.radians(2.0)   # entries this close to tangent are refused
HARD_STEP_CAP = 5_000_000


@dataclass(frozen=True)
class BoundaryDirection:
    """Boundary point with Euclidean-unit direction; the g-unit vector is c(x) v."""

    x: tuple
    v: tuple

    def __post_init__(self):
        n = np.linalg.norm(self.v)
        if abs(n - 1.0) > 1e-9:
            raise PreconditionError(f"direction must be Euclidean-unit, |v| = {n}")


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


def unit_phase(speed: SpeedField, x, v):
    """Covectors c^-1 v-hat at the rows of x (g-unit, H = 1/2)."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    return v / (np.linalg.norm(v, axis=-1, keepdims=True) * speed.eval(x)[0][:, None])


def _rhs(speed, y):
    """Flow at the phase points y = [x | xi], one per row."""
    d = y.shape[1] // 2
    xi = y[:, d:]
    c, g = speed.eval(y[:, :d])
    c = c[:, None]
    return np.concatenate((c * c * xi,
                           -c * np.add.reduce(xi * xi, axis=1, keepdims=True) * g), axis=1)


def _rk4_step(speed, y, dt, k1=None):
    """One RK4 step of every row of y = [x | xi]; dt is a scalar or (n, 1).
    k1, the flow at y, may be passed in when the caller already has it."""
    half = 0.5 * dt
    if k1 is None:
        k1 = _rhs(speed, y)
    k2 = _rhs(speed, y + half * k1)
    k3 = _rhs(speed, y + half * k2)
    k4 = _rhs(speed, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _step_count(n_steps):
    if n_steps > HARD_STEP_CAP:
        raise ResourceError(f"{n_steps} steps exceed the cap of {HARD_STEP_CAP}")
    return n_steps


def integrate_bicharacteristic(speed: SpeedField, x0, xi0, t_max: float,
                               dt: float):
    """Sample the flow from the starts (rows of x0, xi0, shape (n, d)) at
    times k dt up to t_max; every start must satisfy H = 1/2.  Returns x and
    xi of shape (steps + 1, n, d), row 0 being the starts."""
    if dt <= 0 or t_max <= 0:
        raise PreconditionError(f"dt and t_max must be positive, got {dt}, {t_max}")
    x0, xi0 = np.asarray(x0, dtype=float), np.asarray(xi0, dtype=float)
    h0 = hamiltonian(speed, x0, xi0)
    k = int(np.argmax(np.abs(h0 - 0.5)))
    if abs(h0[k] - 0.5) > 1e-10:
        raise PreconditionError(f"starts must be g-unit (H = 1/2), got H = {h0[k]} "
                                f"at row {k}")
    n_steps = _step_count(int(math.floor(t_max / dt + 1e-12)))
    d = x0.shape[1]
    y = np.empty((n_steps + 1, len(x0), 2 * d))
    y[0] = np.hstack([x0, xi0])
    for k in range(n_steps):
        y[k + 1] = _rk4_step(speed, y[k], dt)
    return y[..., :d], y[..., d:]


def scattering_relation(speed: SpeedField, domain: Domain,
                        entry: BoundaryDirection, t_max: float, dt: float) -> LensRecord:
    """Trace one ray from a strictly inward boundary direction to its exit."""
    return scattering_relations(speed, domain, [entry], t_max, dt)[0]


def scattering_relations(speed: SpeedField, domain: Domain, entries,
                         t_max: float, dt: float) -> list[LensRecord]:
    """Trace rays from strictly inward boundary directions to their exits.

    All rays advance together with a shared time t; a ray leaves the active
    set at the step that first takes it from inside the domain to outside.
    The boundary crossing inside that step is located by bisection in the
    step parameter (to 1e-12 relative) and the covector re-evaluated at the
    crossing, so exit directions are as accurate as the flow itself.  A ray
    may exit within its first step.  Entries within THETA_MIN of tangent,
    or whose first move x + 1e-9 v leaves the domain (at a corner), are
    refused (TANGENT_ENTRY); rays still inside at t_max are TRAPPED.
    """
    entries = list(entries)
    x0 = np.array([e.x for e in entries], dtype=float).reshape(-1, domain.dim)
    v0 = np.array([e.v for e in entries], dtype=float).reshape(-1, domain.dim)
    steep = np.add.reduce(v0 * domain.normal(x0), axis=1) <= -math.sin(THETA_MIN)
    steep &= domain.signed(x0 + 1e-9 * v0) < 0.0
    records = [LensRecord(e, None, math.nan, RayStatus.TRAPPED if ok
                          else RayStatus.TANGENT_ENTRY)
               for e, ok in zip(entries, steep)]
    if not steep.any():
        return records
    if dt <= 0 or t_max <= 0:
        raise PreconditionError(f"dt and t_max must be positive, got {dt}, {t_max}")
    n_steps = _step_count(int(math.ceil(t_max / dt)))

    traced = np.nonzero(steep)[0]
    d = x0.shape[1]
    y = np.hstack([x0[traced], v0[traced] / speed.eval(x0[traced])[0][:, None]])
    n = len(traced)
    # phase point, step and time at the start of each ray's exit step
    y_s, step_s, t_s = np.empty_like(y), np.empty(n), np.full(n, math.nan)
    active = np.arange(n)
    t = 0.0
    for _ in range(n_steps):
        step = min(dt, t_max - t)
        if step <= 0 or active.size == 0:
            break
        y_new = _rk4_step(speed, y, step)
        out = domain.signed(y_new[:, :d]) > 0.0
        if np.count_nonzero(out):
            k = active[out]
            y_s[k], step_s[k], t_s[k] = y[out], step, t
            active, y_new = active[~out], y_new[~out]
        y, t = y_new, t + step

    exited = np.nonzero(~np.isnan(t_s))[0]
    if exited.size:
        y_e, f = _bisect_crossing(speed, domain, y_s[exited], step_s[exited])
        ell = t_s[exited] + f * step_s[exited]
        x_e, xi_e = y_e[:, :d], y_e[:, d:]
        v_out = xi_e / np.linalg.norm(xi_e, axis=1, keepdims=True)
        for j, k in enumerate(exited):
            i = traced[k]
            records[i] = LensRecord(entries[i],
                                    BoundaryDirection(tuple(x_e[j]), tuple(v_out[j])),
                                    float(ell[j]), RayStatus.EXITED)
    return records


# the bracket [hi - width, hi] halves exactly each iteration: 2**-40 < 1e-12
_BISECT_ITERATIONS = 40


def _bisect_crossing(speed, domain, y, dt):
    """Phase points on the boundary and fractions f of the last steps (length
    dt per ray) where b changes sign."""
    d = y.shape[1] // 2
    dt = dt[:, None]
    k1 = _rhs(speed, y)       # the same for every trial step from y
    hi, width = np.ones(len(y)), 1.0
    for _ in range(_BISECT_ITERATIONS):
        width *= 0.5
        mid = hi - width      # exact: hi is a multiple of 2 * width
        out = domain.signed(_rk4_step(speed, y, mid[:, None] * dt, k1)[:, :d]) > 0.0
        hi = np.where(out, mid, hi)
    y_hi = _rk4_step(speed, y, hi[:, None] * dt, k1)
    # snap the exit points onto the boundary along the outward normal
    x_hi = y_hi[:, :d]
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
    if count == 1:
        return [0.0]
    return [-lim + (k + 0.5) * 2 * lim / count for k in range(count)]


def entry_at(domain, s: float, angle: float) -> BoundaryDirection:
    """Inward boundary direction at arclength s, at `angle` from the inward normal."""
    x = domain.boundary_point(s)
    nu = domain.normal(x)
    tang = np.array([-nu[1], nu[0]])
    v = -math.cos(angle) * nu + math.sin(angle) * tang
    return BoundaryDirection(tuple(x), tuple(v / np.linalg.norm(v)))


def lens_table(speed: SpeedField, domain: Domain, n_points: int, angles,
               t_max: float, dt: float) -> list[LensTableRow]:
    """Scattering relation sampled on n_points boundary points x a fan of angles.

    `angles` is either a count (symmetric fan) or an explicit sequence of
    angles measured from the inward normal.  Rows are ordered boundary
    parameter major, angle minor.  2D domains only.
    """
    if n_points < 1:
        raise PreconditionError("need at least one boundary point")
    if isinstance(angles, int):
        if angles < 1:
            raise PreconditionError("need at least one angle")
        angles = fan_angles(angles)
    per = domain.perimeter
    grid = [(per * i / n_points, a) for i in range(n_points) for a in angles]
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

