"""Speed recovery from travel-time data in two classical geometries.

Radial models on a disk of radius R are inverted by the Herglotz-Wiechert
Abel formula: with ray parameter p(Delta) = dT/dDelta,

    ln(R / r(p)) = (1/pi) * integral_0^Delta(p) arccosh(p(D')/p) dD',
    c(r(p)) = r(p) / p,

valid exactly when r/c(r) is strictly increasing (equivalently p(Delta)
strictly decreasing) — the same condition the convexity checker tests.

Plane-layered profiles c(z) with c increasing in depth are recovered by
layer stripping: each surface-offset/time sample fixes the speed at its
ray's turning depth, and the depth follows by matching the observed offset
through the already-determined shallower stack.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .convexity import check_hwz
from .errors import (DataInconsistencyError, FoliationError, IllPosedInputError,
                     InversionError, PreconditionError)
from .model_core import DiskDomain, RadialField
from .ray_tracer import RayStatus, entry_at, scattering_relations

_GL_NODES = 32


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass
class TravelTimeCurve:
    """Travel time T versus epicentral angle Delta for a radial model."""

    delta: np.ndarray
    time: np.ndarray
    R: float

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=float)
        self.time = np.asarray(self.time, dtype=float)
        if self.delta.shape != self.time.shape or self.delta.ndim != 1:
            raise PreconditionError("delta and time must be matching 1-D arrays")
        if len(self.delta) < 3:
            raise PreconditionError("need at least 3 travel-time samples")
        if not np.all(np.diff(self.delta) > 0):
            raise PreconditionError("delta samples must be strictly increasing")
        if not np.all(np.diff(self.time) > 0):
            raise PreconditionError("travel times must be increasing with delta")
        # Abel inversion needs p = dT/dDelta strictly decreasing
        dm, p = self.ray_parameters()
        bad = np.nonzero(np.diff(p) >= 0)[0]
        if len(bad):
            i = int(bad[0])
            raise IllPosedInputError(
                "ray parameter dT/dDelta is not strictly decreasing",
                violation=(float(dm[i]), float(dm[i + 1])))

    def ray_parameters(self):
        """Ray parameter estimates p = dT/dDelta at interval midpoints.

        Interval secant slopes are second-order accurate at the midpoints
        and are strictly decreasing exactly when the sampled curve is
        strictly concave, so no fitting artifacts can fake or mask a
        violation.  The curve is anchored at (0, 0): a ray of vanishing
        depth has vanishing time.
        """
        d = np.concatenate(([0.0], self.delta))
        t = np.concatenate(([0.0], self.time))
        return 0.5 * (d[:-1] + d[1:]), np.diff(t) / np.diff(d)


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

    def speed_field(self, r_max=None) -> RadialField:
        return RadialField(profile=list(zip(self.r, self.c)),
                           r_max=r_max if r_max is not None else float(self.r[-1]),
                           dim=2)

    def __call__(self, r):
        return PchipInterpolator(self.r, self.c)(r)


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


def forward_travel_times(profile, R: float, angles, dt: float = 1e-3,
                         t_max: float = 50.0) -> TravelTimeCurve:
    """Trace a fan through a radial model and tabulate (Delta, T).

    profile: RadialProfile or a radial SpeedField.  angles: inward shooting
    angles in (0, pi/2) measured from the inward normal at the single
    source point; by symmetry they sample the full travel-time curve.
    Refuses models that fail the strict-convexity (Herglotz) condition,
    attaching the check report to the error.
    """
    speed = profile.speed_field(r_max=1.5 * R) if isinstance(profile, RadialProfile) \
        else profile
    report = check_hwz(speed, 1e-3 * R, R)
    if not report.strictly_convex:
        raise FoliationError(
            "radial model violates the Herglotz condition d/dr (r/c) > 0",
            report=report, witness=report.witness)

    domain = DiskDomain(R, dim=2)
    for a in angles:
        if not 0.0 < a < np.pi / 2:
            raise PreconditionError(f"shooting angle must lie in (0, pi/2), got {a}")
    records = scattering_relations(speed, domain,
                                   [entry_at(domain, 0.0, a) for a in angles],
                                   dt=dt, t_max=t_max)
    deltas, times = [], []
    for a, rec in zip(angles, records):
        if rec.status is not RayStatus.EXITED:
            raise InversionError(f"ray at angle {a} did not exit ({rec.status.value})")
        x_in, x_out = np.asarray(rec.entry.x), np.asarray(rec.exit.x)
        cosd = float(np.dot(x_in, x_out)) / (R * R)
        deltas.append(float(np.arccos(np.clip(cosd, -1.0, 1.0))))
        times.append(rec.ell)
    order = np.argsort(deltas)
    return TravelTimeCurve(np.asarray(deltas)[order], np.asarray(times)[order], R)


def _gauss_legendre_01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def herglotz_invert(curve: TravelTimeCurve, R: float | None = None) -> RadialProfile:
    """Abel-invert a travel-time curve to the radial speed on turning radii.

    The endpoint square-root singularity of the arccosh integrand is
    removed by the substitution q = sqrt(p' - p): the integral is rewritten
    over q with Delta(p) interpolated monotonically, and evaluated by a
    32-point Gauss-Legendre rule per ray.  Speeds are reported only at
    radii actually reached by turning rays.
    """
    R = curve.R if R is None else R
    dm, p = curve.ray_parameters()   # strictly decreasing: the curve checks it

    # grazing-ray parameter: linear extrapolation of p(Delta) to Delta = 0;
    # for a concave p this overshoots slightly, erring on the safe side of
    # the arccosh argument near the surface
    p0 = float(p[0] + (p[0] - p[1]) / (dm[0] - dm[1]) * (0.0 - dm[0]))
    if p0 <= p[0]:
        raise IllPosedInputError("extrapolated grazing parameter must exceed "
                                 "all sampled p")
    # monotone interpolant of p as a function of Delta, anchored at (0, p0)
    p_of_delta = PchipInterpolator(np.concatenate(([0.0], dm)),
                                   np.concatenate(([p0], p)))

    # the integrand vanishes like sqrt(Delta_j - Delta') at the turning end;
    # the substitution s = sqrt(Delta_j - Delta') makes it smooth there
    xg, wg = _gauss_legendre_01(_GL_NODES)
    radii, speeds = [], []
    for dj, pj in zip(dm, p):
        s = np.sqrt(dj) * xg
        ratio = np.maximum(p_of_delta(dj - s * s) / pj, 1.0)
        integral = np.sqrt(dj) * float(np.dot(wg, np.arccosh(ratio) * 2.0 * s))
        r = R * np.exp(-integral / np.pi)
        radii.append(r)
        speeds.append(r / pj)
    order = np.argsort(radii)
    prof = RadialProfile(np.asarray(radii)[order], np.asarray(speeds)[order])
    ratio = prof.r / prof.c
    if not np.all(np.diff(ratio) > 0):
        raise InversionError("recovered profile violates r/c monotonicity")
    return prof


# ---------------------------------------------------------------------------
# Plane-layered forward model and layer stripping
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

    Samples must be ordered by increasing penetration (increasing offset).
    The surface speed comes from the zero-offset slope of the monotone fit
    of t(X); each subsequent sample contributes one node (z_i, 1/p_i),
    with z_i fixed in closed form by matching the observed offset through
    the shallower stack.  A non-increasing implied speed means the
    increasing-speed condition fails; the error carries the depth band
    below the last consistent node.
    """
    X = np.asarray(offsets, dtype=float)
    t = np.asarray(times, dtype=float)
    if X.shape != t.shape or X.ndim != 1 or len(X) < 2:
        raise PreconditionError("need matching 1-D offset/time arrays, length >= 2")
    # samples arrive ordered by increasing penetration; on a retrograde
    # branch both offset and time decrease, so secant slopes stay positive
    Xa = np.concatenate(([0.0], X))
    ta = np.concatenate(([0.0], t))
    dX = np.diff(Xa)
    if np.any(dX == 0.0):
        raise PreconditionError("consecutive samples must have distinct offsets")
    p_raw = np.diff(ta) / dX
    if np.any(p_raw <= 0):
        raise IllPosedInputError(
            "apparent slowness dt/dX must stay positive along the curve")
    if np.all(np.abs(p_raw - p_raw[0]) < 1e-9 * p_raw[0]):
        # homogeneous medium: surface-to-surface time is X/c exactly
        c0 = 1.0 / float(p_raw[0])
        return DepthProfile([0.0, max(0.5 * float(X[-1]), 1e-6)], [c0, c0])

    # Incremental stripping over consecutive-interval secants.  Local
    # secants estimate p honestly on every travel-time branch (including
    # retrograde ones); only the one or two intervals that straddle a
    # caustic produce spurious slopes.  A candidate node is committed only
    # if (a) it keeps p strictly decreasing, (b) its turning depth lies
    # below the stack, and (c) re-tracing the ray through the extended
    # stack reproduces the observed travel time; straddling artifacts fail
    # one of these and are skipped.  A run of rejections reaching the end
    # of the data means the implied speed genuinely stops increasing and
    # the layer-stripping hypothesis fails below the last committed depth.
    slopes = [(0.5 * (Xa[i] + Xa[i + 1]), 0.5 * (ta[i] + ta[i + 1]), p_raw[i])
              for i in range(len(p_raw))]
    z_nodes = [0.0]
    c_nodes = []               # surface speed appended once two pairs exist
    p_prev = np.inf
    first_pair = None
    trailing_skips = 0
    time_tol = 0.01

    for Xm, tm, pi in slopes:
        if not pi < p_prev * (1.0 - 1e-12):
            trailing_skips += 1
            continue
        ci = 1.0 / pi

        if first_pair is None:
            first_pair = (Xm, pi)
            p_prev = pi
            trailing_skips = 0
            continue
        if not c_nodes:
            # surface speed from the zero-offset asymptote of the slopes
            X1, p1 = first_pair
            p_surf = p1 + (p1 - pi) / (X1 - Xm) * (0.0 - X1)
            p_surf = max(p_surf, p1 * (1.0 + 1e-9))
            c_nodes.append(1.0 / p_surf)
            # commit the first pair's node before handling the current one
            for Xc, pc in ((X1, p1), (Xm, pi)):
                _commit_node(z_nodes, c_nodes, Xc, pc)
            p_prev = pi
            trailing_skips = 0
            continue

        if ci <= c_nodes[-1] * (1.0 + 1e-12):
            trailing_skips += 1
            continue
        try:
            z_try = list(z_nodes)
            c_try = list(c_nodes)
            _commit_node(z_try, c_try, Xm, pi)
        except IllPosedInputError:
            trailing_skips += 1
            continue
        t_pred = 2.0 * _stack(pi, c_try, np.diff(z_try))[1]
        if abs(t_pred - tm) > time_tol * tm:
            trailing_skips += 1
            continue
        z_nodes, c_nodes = z_try, c_try
        p_prev = pi
        trailing_skips = 0

    if len(c_nodes) < 3:
        raise IllPosedInputError(
            "implied speed stops increasing with depth "
            "(low-velocity zone or mislabeled samples)",
            depth_band=(0.0, float("inf")))
    if trailing_skips >= 2:
        raise IllPosedInputError(
            "implied speed stops increasing with depth "
            "(low-velocity zone or mislabeled samples)",
            depth_band=(float(z_nodes[-1]), float("inf")))
    return DepthProfile(z_nodes, c_nodes)


def _commit_node(z_nodes, c_nodes, Xm, p):
    """Append the node (z, 1/p) whose stack offset matches Xm (half = Xm/2)."""
    ci = 1.0 / p
    x_last = 0.5 * Xm - _stack(p, c_nodes, np.diff(z_nodes))[0]
    if x_last <= 0:
        raise IllPosedInputError(
            "observed offset is too small given the shallower layers",
            depth_band=(float(z_nodes[-1]), float("inf")))
    w_top = np.sqrt(max(1.0 - (p * c_nodes[-1]) ** 2, 0.0))
    # last segment turns at its bottom (w = 0): dx = w_top * dz / (p * dc)
    dz = x_last * p * (ci - c_nodes[-1]) / w_top
    z_nodes.append(z_nodes[-1] + dz)
    c_nodes.append(ci)


# ---------------------------------------------------------------------------
# Two-speed wrapper
# ---------------------------------------------------------------------------


def _constant_profile(distances, times) -> DepthProfile:
    d = np.asarray(distances, dtype=float)
    t = np.asarray(times, dtype=float)
    if np.any(t <= 0):
        raise PreconditionError("travel times must be positive")
    c = float(np.mean(d / t))
    return DepthProfile([0.0, max(float(d.max()), 1e-6)], [c, c])


def invert_both_speeds(data_p, data_s, mode: str = "radial", R: float | None = None):
    """Run the applicable inversion once per mode and cross-check the pair.

    mode='radial': data are TravelTimeCurve objects -> RadialProfile pair.
    mode='layered': data are (offsets, times) pairs -> DepthProfile pair.
    mode='homogeneous': data are (straight-ray distances, times) pairs ->
    constant DepthProfile pair.  In every case the recovered profiles must
    satisfy c_p > c_s on their common support; a violation signals mode
    mislabeling upstream and raises a data-inconsistency error.
    """
    if mode == "radial":
        prof_p = herglotz_invert(data_p, R)
        prof_s = herglotz_invert(data_s, R)
        lo = max(prof_p.r[0], prof_s.r[0])
        hi = min(prof_p.r[-1], prof_s.r[-1])
    elif mode == "layered":
        prof_p = layer_strip_invert(*data_p)
        prof_s = layer_strip_invert(*data_s)
        lo = max(prof_p.z[0], prof_s.z[0])
        hi = min(prof_p.z[-1], prof_s.z[-1])
    elif mode == "homogeneous":
        prof_p = _constant_profile(*data_p)
        prof_s = _constant_profile(*data_s)
        lo, hi = 0.0, min(prof_p.z[-1], prof_s.z[-1])
    else:
        raise PreconditionError(f"unknown inversion mode {mode!r}")

    if hi <= lo:
        raise DataInconsistencyError("p and s recoveries have no common support")
    xs = np.linspace(lo, hi, 64)
    cp, cs = prof_p(xs), prof_s(xs)
    if not np.all(cp > cs):
        i = int(np.argmax(cp <= cs))
        raise DataInconsistencyError(
            f"recovered c_p <= c_s at coordinate {xs[i]:.6g} "
            f"(c_p = {cp[i]:.6g}, c_s = {cs[i]:.6g}); check mode labels")
    return prof_p, prof_s
