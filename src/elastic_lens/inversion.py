"""Speed recovery from travel-time data in two classical geometries.

Both are the Herglotz-Wiechert Abel transform of the distance D(p) a ray
of parameter p travels, the radial disk in angle Delta and the layered
half-space in surface offset X:

    I(p) = (1/pi) * integral_p^p0 D(q) / sqrt(q^2 - p^2) dq,

with p0 the grazing parameter.  On a disk of radius R the ray turns at
r(p) = R exp(-I(p)) with c(r) = r / p, valid exactly when r/c(r) is
strictly increasing (p(Delta) strictly decreasing), the condition the
convexity checker tests.  In plane layers with c increasing in depth the
ray turns at z(p) = I(p) with c(z) = 1 / p.  The travel-time curve may
fold (triplicate) in either: D(p) stays single-valued.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss   # at load: numpy imports it lazily

from .convexity import check_hwz
from .errors import (DataInconsistencyError, FoliationError, IllPosedInputError,
                     InversionError, PreconditionError)
from .model_core import Cubic, DiskDomain
from .ray_tracer import DT, T_MAX, RayStatus, entries_at, scattering_relations

_GL_NODES = 32
HERGLOTZ_RANGE = (1e-3, 1.0)   # the radii of the Herglotz check, as fractions of R


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass
class RadialProfile:
    """Speed samples c(r) on the ray-covered radii [min turning radius, R]."""

    r: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        if not np.all(np.diff(self.r) > 0):
            raise PreconditionError("radii must be strictly increasing")
        if not np.all(self.c > 0):
            raise PreconditionError("speeds must be positive")


@dataclass
class DepthProfile:
    """Speed samples c(z) versus depth, piecewise linear."""

    z: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        if not np.all(np.diff(self.z) > 0):
            raise PreconditionError("depths must be strictly increasing")
        if not np.all(self.c > 0):
            raise PreconditionError("speeds must be positive")

    def __call__(self, z):
        return np.interp(z, self.z, self.c)


# ---------------------------------------------------------------------------
# Radial forward model and Herglotz inversion
# ---------------------------------------------------------------------------


def forward_travel_times(speed, R: float, angles, dt: float = DT, counters=None):
    """Trace a fan through a radial speed field and tabulate (Delta, T).

    angles: inward shooting angles in (0, pi/2) measured from the inward
    normal at the single source point; by symmetry they sample the full
    travel-time curve.  Returns (delta, time) in penetration order, by
    decreasing shooting angle; Delta need not be monotone in that order
    when a gradient jump folds the curve, and may exceed pi (a ray that
    runs further than half way round).  Delta is the exit's polar angle
    from the source, unwrapped along the fan: neighbouring rays must differ
    by less than pi and the shallowest ray by less than pi from the source.
    Refuses models that fail the strict-convexity (Herglotz) condition with
    a FoliationError.  `counters` is scattering_relations'.
    """
    if not check_hwz(speed, *(f * R for f in HERGLOTZ_RANGE)).strictly_convex:
        raise FoliationError("radial model violates the Herglotz condition d/dr (r/c) > 0")

    domain = DiskDomain(R, dim=2)
    for a in angles:
        if not 0.0 < a < np.pi / 2:
            raise PreconditionError(f"shooting angle must lie in (0, pi/2), got {a}")
    records = scattering_relations(speed, domain, entries_at(domain, 0.0, angles),
                                   dt=dt, t_max=T_MAX, counters=counters)
    for a, rec in zip(angles, records):
        if rec.status is not RayStatus.EXITED:
            raise InversionError(f"ray at angle {a} did not exit ({rec.status.value})")
    order = np.argsort(-np.asarray(angles))
    x_out = np.array([records[i].exit.x for i in order])
    # the source sits at (R, 0): the exit's polar angle is Delta, up to sign
    delta = np.abs(np.unwrap(np.arctan2(x_out[:, 1], x_out[:, 0])))
    return delta, np.array([records[i].ell for i in order])


def _pchip(x, y) -> Cubic:
    """Monotone (Fritsch-Carlson) cubic through (x, y), with the knot slopes
    of scipy's PchipInterpolator: inside, the weighted harmonic mean of the
    two secants, 0 where they differ in sign or one vanishes; at the ends a
    one-sided three-point estimate, kept from overshooting."""
    h, k = np.diff(x), np.diff(y) / np.diff(x)
    if len(k) == 1:
        return Cubic(x, y, [k[0], k[0]])
    m = np.zeros(len(x))
    same = np.sign(k[:-1]) * np.sign(k[1:]) > 0
    w1, w2 = (2 * h[1:] + h[:-1])[same], (h[1:] + 2 * h[:-1])[same]
    m[1:-1][same] = 1.0 / ((w1 / k[:-1][same] + w2 / k[1:][same]) / (w1 + w2))
    e, f = [0, -1], [1, -2]                             # the ends, their neighbours
    d = ((2 * h[e] + h[f]) * k[e] - h[e] * k[f]) / (h[e] + h[f])
    overshoot = (np.sign(k[e]) != np.sign(k[f])) & (np.abs(d) > 3 * np.abs(k[e]))
    m[e] = np.where(np.sign(d) != np.sign(k[e]), 0.0, np.where(overshoot, 3 * k[e], d))
    return Cubic(x, y, m)


def _samples(X, t):
    """(X, t) as float arrays: matching 1-D, >= 2 finite samples, and no
    sample at the distance of the one before it (or of the anchor, X = 0)."""
    X, t = np.asarray(X, dtype=float), np.asarray(t, dtype=float)
    if X.shape != t.shape or X.ndim != 1 or len(X) < 2:
        raise PreconditionError("need matching 1-D distance/time arrays, length >= 2")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(t))):
        raise PreconditionError("distances and times must be finite")
    if np.any(np.diff(np.concatenate(([0.0], X))) == 0.0):
        raise PreconditionError("consecutive samples must have distinct distances")
    return X, t


def _abel(X, t):
    """Abel-invert (distance, time) samples to ray parameters and integrals.

    (X, t) are ordered by increasing penetration; the curve is anchored at
    (0, 0).  Interval secants estimate p at the midpoints.  A turning
    sample, where X turns back, sits next to a caustic: the secants of its
    two intervals are dropped and the sample itself becomes a node, its p
    interpolated monotonically over sample order.  With D(q) the distance
    of the ray with parameter q, returns (p0, p_j, I_j) with p_j strictly
    decreasing and

        I_j = (1/pi) * integral_{p_j}^{p0} D(q) / sqrt(q^2 - p_j^2) dq,

    p0 being the grazing parameter, extrapolated linearly to X = 0.  D is
    a monotone interpolant in u = sqrt(p0 - q), where it is smooth at the
    surface, and q = p_j + s^2 removes the endpoint singularity before a
    32-point Gauss-Legendre rule.  Non-decreasing kept secants raise
    IllPosedInputError with their midpoints and depth_band = (I of the
    last consistent node, inf), that I from the samples before them.
    """
    Xa = np.concatenate(([0.0], X))
    dX = np.diff(Xa)
    p = np.diff(np.concatenate(([0.0], t))) / dX
    xm = 0.5 * (Xa[:-1] + Xa[1:])
    turn = 1 + np.flatnonzero(dX[:-1] * dX[1:] < 0)
    keep = np.ones(len(p), dtype=bool)
    keep[turn - 1] = keep[turn] = False
    kept = np.flatnonzero(keep)
    if len(kept) < 2:
        raise IllPosedInputError("need two ray parameters clear of caustics",
                                 depth_band=(0.0, np.inf))
    bad = np.flatnonzero(np.diff(p[kept]) >= 0)
    if len(bad):
        i, k = kept[bad[0]], kept[bad[0] + 1]
        try:
            top = float(_abel(X[:k], t[:k])[2][-1])
        except InversionError:
            top = 0.0
        raise IllPosedInputError(
            "ray parameter is not strictly decreasing: the implied speed stops "
            "increasing with depth (low-velocity zone or mislabeled samples)",
            violation=(float(xm[i]), float(xm[k])), depth_band=(top, np.inf))
    if p[kept[-1]] <= 0:
        raise IllPosedInputError("apparent slowness dt/dX must stay positive "
                                 "along the curve")
    # a turning sample outside the kept secants would need p extrapolated,
    # and PCHIP extrapolation need not stay monotone: it gives no node
    turn = turn[(turn > kept[0]) & (turn <= kept[-1])]
    order = np.argsort(np.concatenate((kept + 0.5, turn)))
    p = np.concatenate((p[kept], _pchip(kept + 0.5, p[kept]).eval(turn)[0]))[order]
    x = np.concatenate((xm[kept], Xa[turn]))[order]

    p0 = float(p[0] + (p[0] - p[1]) / (x[0] - x[1]) * (0.0 - x[0]))
    if p0 <= p[0]:
        raise IllPosedInputError("extrapolated grazing parameter must exceed "
                                 "all sampled p")
    u = np.sqrt(p0 - p)
    D = _pchip(np.concatenate(([0.0], u)), np.concatenate(([0.0], x)))
    xg, wg = leggauss(_GL_NODES)
    xg, wg = 0.5 * (xg + 1.0), 0.5 * wg                # on [0, 1]
    s = u[:, None] * xg
    f = D.eval(u[:, None] * np.sqrt(1.0 - xg * xg))[0] / np.sqrt(2.0 * p[:, None] + s * s)
    integral = (2.0 / np.pi) * u * (f @ wg)
    if not np.all(np.diff(integral) > 0):
        raise InversionError("recovered turning depth is not monotone in p")
    return p0, p, integral


def herglotz_invert(delta, time, R: float) -> RadialProfile:
    """Abel-invert a travel-time curve on a disk of radius R to the radial
    speed on turning radii.

    Samples must be ordered by increasing penetration, as
    forward_travel_times returns them; on a retrograde branch Delta and T
    both decrease.  The turning radius of the ray with parameter p is
    r = R exp(-I) with I the Abel integral of Delta(p) (see _abel), and
    c(r) = r / p.  Speeds are reported only at radii actually reached by
    turning rays.
    """
    if not (np.isfinite(R) and R > 0):
        raise PreconditionError(f"disk radius R must be finite and positive, got {R}")
    _, p, integral = _abel(*_samples(delta, time))
    r = R * np.exp(-integral[::-1])
    return RadialProfile(r, r / p[::-1])


# ---------------------------------------------------------------------------
# Plane-layered forward model and inversion
# ---------------------------------------------------------------------------


def _stack(p, c, dz):
    """Half-path offset and time of the ray with parameter p through a stack
    of linear-gradient layers, summed in order from the top.

    Layer i goes linearly from speed c[i] (top) to c[i + 1] (bottom) over
    thickness dz[i].  For a ray turning at the bottom pass c[-1] = 1/p
    exactly.
    """
    x = t = 0.0
    for c_a, c_b, h in zip(c[:-1], c[1:], dz):
        w_a = np.sqrt(max(1.0 - (p * c_a) ** 2, 0.0))
        w_b = np.sqrt(max(1.0 - (p * c_b) ** 2, 0.0))
        if abs(c_b - c_a) < 1e-14 * c_a:
            if w_a == 0.0:
                raise InversionError("ray grazes a constant-speed layer")
            x += p * c_a * h / w_a
            t += h / (c_a * w_a)
            continue
        b = (c_b - c_a) / h
        x += (w_a - w_b) / (p * b)
        t += np.log((c_b * (1.0 + w_a)) / (c_a * (1.0 + w_b))) / b
    return x, t


def forward_layered_times(profile: DepthProfile, ray_parameters):
    """Surface-to-surface offsets and times for a piecewise-linear c(z).

    Only rays that turn strictly inside the profile are accepted.  Returns
    (offsets, times) sorted by increasing offset.
    """
    z, c = profile.z, profile.c
    if not np.all(np.diff(c) > 0):
        raise PreconditionError("layered forward model needs c strictly "
                                "increasing in depth")
    offsets, times = [], []
    for p in ray_parameters:
        c_turn = 1.0 / p
        if not c[0] < c_turn < c[-1]:
            raise InversionError(f"ray parameter {p} does not turn inside the profile")
        k = bisect_left(c, c_turn)
        # the whole layers above, then the partial one down to the turning depth
        b = (c[k] - c[k - 1]) / (z[k] - z[k - 1])
        x, t = _stack(p, np.append(c[:k], c_turn),
                      np.append(np.diff(z[:k]), (c_turn - c[k - 1]) / b))
        offsets.append(2.0 * x)
        times.append(2.0 * t)
    # order by increasing penetration (decreasing ray parameter); offsets
    # need not be monotone when a gradient jump creates a retrograde branch
    order = np.argsort(-np.asarray(ray_parameters))
    return np.asarray(offsets)[order], np.asarray(times)[order]


def layer_strip_invert(offsets, times) -> DepthProfile:
    """Recover an increasing c(z) from surface offset/time samples.

    Samples must be ordered by increasing penetration; on a retrograde
    branch offset and time both decrease.  The flat-earth Abel formula
    gives the turning depth z = I of each ray parameter p (see _abel) and
    c(z) = 1 / p, with the surface speed 1 / p0.  A non-increasing implied
    speed means the increasing-speed condition fails; the error carries
    the depth band below the last consistent node.
    """
    X, t = _samples(offsets, times)
    p = np.diff(np.concatenate(([0.0], t))) / np.diff(np.concatenate(([0.0], X)))
    if np.all(np.abs(p - p[0]) < 1e-9 * p[0]):
        # homogeneous medium: surface-to-surface time is X/c exactly
        return DepthProfile([0.0, max(0.5 * float(X[-1]), 1e-6)], [1.0 / p[0]] * 2)
    p0, p, z = _abel(X, t)
    return DepthProfile(np.concatenate(([0.0], z)), 1.0 / np.concatenate(([p0], p)))


# ---------------------------------------------------------------------------
# Two-speed check
# ---------------------------------------------------------------------------


def invert_both_speeds(data_p, data_s):
    """The constant speeds (c_p, c_s), each mean(d / t) over its (straight-ray
    distances, times) pair.  c_p must exceed c_s; a violation signals mode
    mislabeling upstream and raises a data-inconsistency error."""
    speeds = []
    for d, t in (data_p, data_s):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise PreconditionError("travel times must be positive")
        speeds.append(float(np.mean(np.asarray(d, dtype=float) / t)))
    cp, cs = speeds
    if not cp > cs:
        raise DataInconsistencyError(
            f"recovered c_p = {cp:.6g} <= c_s = {cs:.6g}; check mode labels")
    return cp, cs
