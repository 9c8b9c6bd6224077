"""Bicharacteristics of H = c^2 |xi|^2 / 2 and the scattering relation.

The flow is

    dx/dt  =  c^2 xi,        dxi/dt = -c |xi|^2 grad c,

integrated with classical fixed-step RK4.  On trajectories normalized to
H = 1/2 the parameter t is the metric length in c^-2 dx^2, i.e. the travel
time, and |dx/dt| = c.  Works in 2 and 3 dimensions.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ResourceError
from .model_core import Domain, SpeedField

DEFAULT_THETA_MIN = math.radians(2.0)   # tangential entries are refused
HARD_STEP_CAP = 5_000_000


@dataclass(frozen=True)
class PhasePoint:
    x: tuple
    xi: tuple
    t: float = 0.0


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


def hamiltonian(speed: SpeedField, x, xi) -> float:
    c = speed.value(x)
    return 0.5 * c * c * float(np.dot(xi, xi))


def unit_phase(speed: SpeedField, x, v) -> PhasePoint:
    """Phase point with covector c^-1 v-hat: g-unit, H = 1/2."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    c = speed.value(x)
    return PhasePoint(tuple(np.asarray(x, float)), tuple(v / c), 0.0)


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


def integrate_bicharacteristic(speed: SpeedField, start: PhasePoint,
                               t_max: float, dt: float) -> list[PhasePoint]:
    """Sample the flow at steps dt up to t_max; start must satisfy H = 1/2."""
    if dt <= 0 or t_max <= 0:
        raise PreconditionError(f"dt and t_max must be positive, got {dt}, {t_max}")
    h0 = hamiltonian(speed, np.asarray(start.x), np.asarray(start.xi))
    if abs(h0 - 0.5) > 1e-10:
        raise PreconditionError(f"start must be g-unit (H = 1/2), got H = {h0}")
    n_steps = _step_count(int(math.floor(t_max / dt + 1e-12)))
    d = len(start.x)
    y = np.concatenate([start.x, start.xi]).astype(float)[None]
    out = [start]
    t = start.t
    for _ in range(n_steps):
        y = _rk4_step(speed, y, dt)
        t += dt
        out.append(PhasePoint(tuple(y[0, :d]), tuple(y[0, d:]), t))
    return out


def scattering_relation(speed: SpeedField, domain: Domain,
                        entry: BoundaryDirection, t_max: float, dt: float,
                        theta_min: float = DEFAULT_THETA_MIN) -> LensRecord:
    """Trace one ray from a strictly inward boundary direction to its exit."""
    return scattering_relations(speed, domain, [entry], t_max, dt, theta_min)[0]


def scattering_relations(speed: SpeedField, domain: Domain, entries,
                         t_max: float, dt: float,
                         theta_min: float = DEFAULT_THETA_MIN) -> list[LensRecord]:
    """Trace rays from strictly inward boundary directions to their exits.

    All rays advance together with a shared time t; a ray leaves the active
    set at the step that first takes it from inside the domain to outside.
    The boundary crossing inside that step is located by bisection in the
    step parameter (to 1e-12 relative) and the covector re-evaluated at the
    crossing, so exit directions are as accurate as the flow itself.
    Entries within theta_min of tangent are refused (TANGENT_ENTRY); rays
    still inside at t_max are TRAPPED.
    """
    entries = list(entries)
    x0 = np.array([e.x for e in entries], dtype=float)
    v0 = np.array([e.v for e in entries], dtype=float)
    steep = np.array([float(v @ domain.normal(x)) <= -math.sin(theta_min)
                      for x, v in zip(x0, v0)], dtype=bool)
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
    # a ray exits only after it has been inside; the mask is dropped once
    # every active ray has been
    been_inside, all_inside = np.zeros(n, dtype=bool), False
    t = 0.0
    for _ in range(n_steps):
        step = min(dt, t_max - t)
        if step <= 0 or active.size == 0:
            break
        y_new = _rk4_step(speed, y, step)
        b_new = domain.signed(y_new[:, :d])
        out = b_new > 0.0
        if not all_inside:
            out &= been_inside
        if np.count_nonzero(out):
            k = active[out]
            y_s[k], step_s[k], t_s[k] = y[out], step, t
            keep = ~out
            active, y_new = active[keep], y_new[keep]
            b_new, been_inside = b_new[keep], been_inside[keep]
        if not all_inside:
            been_inside |= b_new < 0.0
            all_inside = bool(been_inside.all())
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
    x_hi -= domain.signed(x_hi)[:, None] * _boundary_normal_near(domain, x_hi)
    return y_hi, hi


def _boundary_normal_near(domain, x):
    """Outward normals of the boundary points nearest to the points along the
    last axis of x (each may be off the boundary by ~1e-12)."""
    eps = 1e-7
    x = np.asarray(x, dtype=float)[..., None, :]
    e = eps * np.eye(x.shape[-1])
    n = (domain.signed(x + e) - domain.signed(x - e)) / (2 * eps)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


@dataclass(frozen=True)
class LensTableRow:
    entry_s: float
    entry_angle: float
    record: LensRecord


def fan_angles(count: int, theta_min: float = DEFAULT_THETA_MIN):
    """count inward angles (from the inward normal), symmetric, tangent-free."""
    lim = math.pi / 2 - theta_min
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
               t_max: float, dt: float,
               theta_min: float = DEFAULT_THETA_MIN) -> list[LensTableRow]:
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
        angles = fan_angles(angles, theta_min)
    per = domain.perimeter
    grid = [(per * i / n_points, a) for i in range(n_points) for a in angles]
    records = scattering_relations(speed, domain,
                                   [entry_at(domain, s, a) for s, a in grid],
                                   t_max, dt, theta_min)
    return [LensTableRow(s, a, rec) for (s, a), rec in zip(grid, records)]


def exit_angle(domain, rec: LensRecord) -> float:
    """Signed angle of the exit direction from the outward normal."""
    x = np.asarray(rec.exit.x)
    v = np.asarray(rec.exit.v)
    nu = _boundary_normal_near(domain, x)
    tang = np.array([-nu[1], nu[0]])
    return math.atan2(float(v @ tang), float(v @ nu))


def write_lens_csv(path, domain, rows: list[LensTableRow]):
    """CSV: entry_s, entry_angle, exit_s, exit_angle, ell, status."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["entry_s", "entry_angle", "exit_s", "exit_angle", "ell", "status"])
        for row in rows:
            rec = row.record
            if rec.status is RayStatus.EXITED:
                w.writerow([f"{row.entry_s:.12g}", f"{row.entry_angle:.12g}",
                            f"{domain.boundary_param(np.asarray(rec.exit.x)):.12g}",
                            f"{exit_angle(domain, rec):.12g}",
                            f"{rec.ell:.12g}", rec.status.value])
            else:
                w.writerow([f"{row.entry_s:.12g}", f"{row.entry_angle:.12g}",
                            "", "", "", rec.status.value])


def read_lens_csv(path):
    """Rows of the lens CSV as dicts with floats (empty fields -> None)."""
    out = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            out.append({k: (float(v) if v not in ("", None) and k != "status" else v)
                        for k, v in rec.items()})
    return out
