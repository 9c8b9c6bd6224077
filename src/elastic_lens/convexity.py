"""Strictly convex foliation checks for a speed field.

Sign convention.  For an oriented hypersurface with unit normal nu and
ambient (Euclidean) second fundamental form II computed with respect to nu
(Euclidean sphere of radius r with outward nu: II = 1/r), the quantity

    value = II(xi') - (grad c . nu) / c

has the sign of the second fundamental form in the metric c^-2 dx^2.
Positive means strictly convex there; geodesics launched tangent to the
surface immediately move to the +nu side.  Two calibration points pin the
convention: a round sphere with c = 1 gives 1/r, and Euclidean spheres are
exactly flat for c(x) = |x|.

For concentric spheres the criterion reduces (up to the positive factor
c/r) to d/dr (r / c) > 0, the generalized Herglotz / Wiechert-Zoeppritz
condition; for parallel planes it is a sign test on the normal derivative
of c.

All three checks run on one array engine: every leaf x point x tangent
sample of a foliation is placed, framed and evaluated in one batch, with
one field evaluation, and one scan turns the values into a report.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import FoliationError, PreconditionError
from .model_core import Domain, RadialField, SpeedField

# verdict margins (unit-scale models)
STRICT_MARGIN = 1e-9
GRAD_EPS = 1e-8

VERDICT_CONVEX = "strictly convex"
VERDICT_FLAT = "flat within tolerance"
VERDICT_VIOLATED = "violated"

_GOLDEN = math.pi * (3.0 - math.sqrt(5.0))
_R2 = (0.7548776662466927, 0.5698402909980532)    # steps of the R2 sequence, per transverse axis
_BISECT_STEPS = 50   # halves a ray bracket to below 1e-15 of its length
_SAMPLES = (32, 64)   # leaves, points per leaf (then tangents per 3D point)


@dataclass(frozen=True)
class Foliation:
    """One-parameter family of leaves to check.

    kind:
      * "spheres": concentric spheres, params (r_min, r_max)
      * "planes":  parallel planes x[axis] = C, params (C1, C2), axis
      * "kappa":   level sets of a scalar function, params (q_lo, q_hi),
                   with the callable kappa(X)

    kappa maps an (n, d) array of points to (n,) values, differentiated by
    finite differences.  Kappa leaves must be star-shaped around the origin.

    orientation: +1 orients leaf normals along grad kappa (outward for
    spheres), -1 the other way.  The normal points to the side tangent
    geodesics must stay on.
    """

    kind: str
    params: tuple
    axis: int = -1
    kappa: object = None
    orientation: int = 1

    def __post_init__(self):
        if self.kind not in ("spheres", "planes", "kappa"):
            raise PreconditionError(f"unknown foliation kind {self.kind!r}")
        if self.kind == "kappa" and self.kappa is None:
            raise PreconditionError("kappa foliation needs a level function")


@dataclass
class ConvexityReport:
    verdict: str
    margin: float
    leaf_minima: list            # (leaf parameter, min form value on leaf)
    witness: dict | None         # leaf, point, direction, value on violation
    samples: dict
    notes: list = field(default_factory=list)

    @property
    def strictly_convex(self):
        return self.verdict == VERDICT_CONVEX


def conformal_second_fundamental_form(speed: SpeedField, x, tangent, normal,
                                      ambient_form: float) -> float:
    """Second-fundamental-form value of a surface through x in c^-2 dx^2.

    tangent: Euclidean-unit surface tangent; normal: Euclidean-unit,
    orthogonal to tangent, oriented per the module convention;
    ambient_form: Euclidean II(tangent) with the same orientation.
    """
    t = np.asarray(tangent, dtype=float)
    n = np.asarray(normal, dtype=float)
    if abs(np.linalg.norm(t) - 1.0) > 1e-9 or abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise PreconditionError("tangent and normal must be Euclidean-unit")
    if abs(float(t @ n)) > 1e-9:
        raise PreconditionError(f"tangent and normal not orthogonal (dot = {t @ n:.3g})")
    c, g = speed.value_and_grad(x)
    return float(ambient_form) - float(g @ n) / c


def _directions(count, dim):
    """count deterministic well-spread unit vectors (golden angle / Fibonacci)."""
    if dim == 2:
        ang = np.arange(count) * _GOLDEN
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    ang = k * _GOLDEN
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


def _fd_grad(kappa, X, h=1e-6):
    """Central differences of kappa at the rows of X: (n, d)."""
    return np.stack([(kappa(X + e) - kappa(X - e)) / (2 * h)
                     for e in h * np.eye(X.shape[1])], axis=-1)


def _fd_hess(kappa, X):
    """Central differences of the central-difference gradient: (n, d, d)."""
    h = 1e-4
    return np.stack([(_fd_grad(kappa, X + e, h) - _fd_grad(kappa, X - e, h)) / (2 * h)
                     for e in h * np.eye(X.shape[1])], axis=-1)


def _level_derivatives(fol, dim):
    """Gradient and Hessian of the level function as (n, d)-array callables."""
    if fol.kind == "spheres":   # kappa = |x|
        def hess(X):
            r = np.linalg.norm(X, axis=1)[:, None, None]
            return (np.eye(dim) - X[:, :, None] * X[:, None, :] / r**2) / r
        return (lambda X: X / np.linalg.norm(X, axis=1, keepdims=True)), hess
    if fol.kind == "planes":    # kappa = x[axis]
        e = np.eye(dim)[fol.axis]
        return (lambda X: np.broadcast_to(e, X.shape)), (lambda X: np.zeros((len(X), dim, dim)))
    return (lambda X: _fd_grad(fol.kappa, X)), (lambda X: _fd_hess(fol.kappa, X))


def _kappa_leaves(kappa, levels, omegas, bounds):
    """Points where kappa = q on the rays t * omega, t in (0, bounds exit].

    One batched bisection for every (leaf, ray) pair; returns the points
    (L, P, d) and the mask of pairs whose ray crosses the leaf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.nanmin(np.maximum(bounds.lo / omegas, bounds.hi / omegas), axis=1)

    def f(t):
        X = (t[..., None] * omegas).reshape(-1, omegas.shape[1])
        return kappa(X).reshape(t.shape) - levels[:, None]

    a = np.full((len(levels), len(omegas)), 1e-9)
    b = np.broadcast_to(reach, a.shape)
    fa = f(a)
    crossed = fa * f(b) <= 0.0
    for _ in range(_BISECT_STEPS):
        m = 0.5 * (a + b)
        fm = f(m)
        right = fa * fm > 0.0   # the root lies in [m, b]
        a, fa, b = np.where(right, m, a), np.where(right, fm, fa), np.where(right, b, m)
    return 0.5 * (a + b)[..., None] * omegas, crossed


def _tangents(nu, n_dir):
    """(n, K, d) unit tangents at points with unit normals nu: one in 2D,
    n_dir spread over a half circle of the tangent plane in 3D."""
    if nu.shape[1] == 2:
        return np.stack([-nu[:, 1], nu[:, 0]], axis=1)[:, None]
    a = np.where(np.abs(nu[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e1 = a - np.sum(a * nu, axis=1, keepdims=True) * nu
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(nu, e1)
    th = (np.arange(n_dir) + 0.5) * math.pi / n_dir
    return np.cos(th)[:, None] * e1[:, None] + np.sin(th)[:, None] * e2[:, None]


_Samples = namedtuple("_Samples", "levels points_per_leaf leaf points c tangents form")


def _sample_foliation(speed: SpeedField, fol: Foliation, domain, samples, extra=()):
    """The conformal form II(t) - d_nu c / c on every leaf x point x tangent;
    the leaves are n_leaf evenly over fol.params, sorted in with any `extra`.

    Sphere points are q * omega; plane points share one transverse placement
    in the middle 90 % of the field's bounds, point k at frac(1/2 + k alpha)
    on each axis (the R2 sequence); kappa leaves are found by bisection along
    t * omega.  Points outside `domain` are dropped; the field is evaluated
    once, at the points kept (DomainError if one lies outside its bounds).
    Returns the kept samples in scan order: leaf parameters (L,), points per
    leaf, leaf index (n,), points (n, d), c (n,), tangents (n, K, d), form (n, K).
    """
    n_leaf, n_pt, n_dir = samples
    dim = speed.bounds.dim
    levels = np.linspace(*fol.params, n_leaf)
    if len(extra):
        levels = np.sort(np.concatenate((levels, extra)))   # np.unique would load numpy.ma
    kept = np.ones((len(levels), n_pt), dtype=bool)
    if fol.kind == "spheres":
        points = levels[:, None, None] * _directions(n_pt, dim)[None]
    elif fol.kind == "planes":
        if not -dim <= fol.axis < dim:
            raise PreconditionError(f"plane axis {fol.axis} outside [{-dim}, {dim})")
        axis = fol.axis % dim
        lo, hi = speed.bounds.lo, speed.bounds.hi
        trans = [i for i in range(dim) if i != axis]
        u = (0.5 + np.arange(n_pt)[:, None] * _R2[:len(trans)]) % 1.0
        points = np.zeros((n_leaf, n_pt, dim))
        points[:, :, trans] = lo[trans] + (hi[trans] - lo[trans]) * (0.05 + 0.9 * u)
        points[:, :, axis] = levels[:, None]
    else:
        points, kept = _kappa_leaves(fol.kappa, levels, _directions(n_pt, dim), speed.bounds)
    if domain is not None:
        kept &= domain.signed(points) <= 1e-9
    leaf = np.nonzero(kept)[0]
    X = points[kept]

    grad, hess = _level_derivatives(fol, dim)
    gk = grad(X)
    ng = np.linalg.norm(gk, axis=1)
    degenerate = ~(ng >= GRAD_EPS)   # nan too: the sphere of radius 0
    if np.any(degenerate):
        k = int(np.argmax(degenerate))
        raise FoliationError(f"|grad kappa| = {ng[k]:.3g} < {GRAD_EPS} on leaf "
                             f"{levels[leaf[k]]} at {X[k].tolist()}")
    sign = 1.0 if fol.orientation >= 0 else -1.0
    nu = sign * gk / ng[:, None]
    T = _tangents(nu, n_dir)
    # + 0.0: a flat leaf oriented by sign = -1 reads 0.0, not -0.0
    II = sign * np.einsum("nki,nij,nkj->nk", T, hess(X), T) / ng[:, None] + 0.0
    c, gc = speed.eval(X)
    form = II - (np.einsum("ni,ni->n", gc, nu) / c)[:, None]
    return _Samples(levels, n_pt, leaf, X, c, T, form)


def _scan_report(s: _Samples, vals):
    """Report on per-sample values vals (n, K): leaf minima, the first
    violating sample in scan order as witness, and the verdict."""
    if not len(vals):
        raise PreconditionError("no foliation samples fell inside the domain")
    leaf_min = np.full(len(s.levels), np.inf)
    np.minimum.at(leaf_min, s.leaf, vals.min(axis=1))
    minima = [(float(s.levels[i]), float(leaf_min[i]))
              for i in np.flatnonzero(np.bincount(s.leaf, minlength=len(s.levels)))]
    margin = min(v for _, v in minima)
    verdict = (VERDICT_CONVEX if margin > STRICT_MARGIN else
               VERDICT_FLAT if margin >= -STRICT_MARGIN else VERDICT_VIOLATED)
    witness = None
    if verdict == VERDICT_VIOLATED:
        n, k = np.unravel_index(int(np.argmax(vals < -STRICT_MARGIN)), vals.shape)
        witness = {"leaf": float(s.levels[s.leaf[n]]), "point": list(map(float, s.points[n])),
                   "direction": list(map(float, s.tangents[n, k])), "value": float(vals[n, k])}
    return ConvexityReport(verdict, margin, minima, witness,
                           {"leaves": len(s.levels), "points_per_leaf": s.points_per_leaf,
                            "directions": vals.shape[1]})


def check_hwz(speed: SpeedField, r_min: float, r_max: float) -> ConvexityReport:
    """Herglotz / Wiechert-Zoeppritz test: d/dr (r / c(r omega)) > 0.

    The reported value is d/dr (r/c) = (c - r dc/dr) / c^2, i.e. r/c times
    the conformal form of the sphere of radius r.  On a profile-built
    RadialField the spline's bends (Cubic.bends) in (r_min, r_max) join the
    leaves; they hold the least c - r dc/dr, so the verdict there is exact.
    On any other field it is sampled, and a note says so.
    """
    if not (0 < r_min < r_max):
        raise PreconditionError(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
    cubic = speed.cubic if isinstance(speed, RadialField) else None
    bends = [r for r in cubic.bends() if r_min < r < r_max] if cubic else []
    s = _sample_foliation(speed, Foliation("spheres", (r_min, r_max)), None, (*_SAMPLES, 1), bends)
    report = _scan_report(s, s.form * (s.levels[s.leaf] / s.c)[:, None])
    if cubic is None:
        report.notes.append(f"verdict sampled on {len(s.levels)} spheres of {s.points_per_leaf} "
                            "points each; it is exact only on a field built from a radial profile")
    return report


def check_plane_foliation(speed: SpeedField, axis: int, c1: float,
                          c2: float) -> ConvexityReport:
    """Parallel planes x[axis] in [c1, c2]: strictly convex iff dc/dx_axis > 0
    (normals oriented toward decreasing x[axis]).

    The reported value is dc/dx_axis, i.e. c times the conformal form.
    """
    if not c1 < c2:
        raise PreconditionError(f"need c1 < c2, got {c1}, {c2}")
    fol = Foliation("planes", (c1, c2), axis=axis, orientation=-1)
    s = _sample_foliation(speed, fol, None, (*_SAMPLES, 1))
    return _scan_report(s, s.form * s.c[:, None])


def check_foliation(speed: SpeedField, foliation: Foliation,
                    domain: Domain) -> ConvexityReport:
    """General leaf-by-leaf convexity check via the conformal form.

    Kappa leaves are sampled by ray casting from the origin inside the
    field's bounds (star-shaped level sets); the ambient form comes from
    the gradient and Hessian of the level function.  Samples outside
    `domain` are skipped; a sample outside the field's bounds raises
    DomainError.  The verification region is read as kappa^-1([q_lo, q_hi])
    intersected with the closed domain, and that reading is flagged in the
    report notes.
    """
    s = _sample_foliation(speed, foliation, domain, (*_SAMPLES, 16))
    report = _scan_report(s, s.form)
    report.samples["evaluated"] = s.form.size
    report.notes.append("verification region read as the kappa range intersected "
                        "with the closed domain (M0 is not pinned down further by the data)")
    # zero-leaf side condition: no interior point of the q = 0 leaf
    if foliation.kind == "kappa" and domain is not None:
        on_zero = np.abs(s.levels[s.leaf]) < 1e-12
        if np.any(domain.signed(s.points[on_zero]) < -1e-6):
            report.notes.append("zero leaf has samples strictly inside the domain")
    return report
