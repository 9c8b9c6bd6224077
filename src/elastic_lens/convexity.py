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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFoliationError, PreconditionError
from .model_core import Domain, SpeedField

# verdict margins (unit-scale models)
STRICT_MARGIN = 1e-9
GRAD_EPS = 1e-8

VERDICT_CONVEX = "strictly convex"
VERDICT_FLAT = "flat within tolerance"
VERDICT_VIOLATED = "violated"

_GOLDEN = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class Foliation:
    """One-parameter family of leaves to check.

    kind:
      * "spheres": concentric spheres, params (r_min, r_max)
      * "planes":  parallel planes x[axis] = C, params (C1, C2), axis
      * "kappa":   level sets of a scalar function, params (q_lo, q_hi),
                   with callables kappa(x), optional grad(x) and hess(x)
                   (finite differences otherwise)

    orientation: +1 orients leaf normals along grad kappa (outward for
    spheres), -1 the other way.  The normal points to the side tangent
    geodesics must stay on.
    """

    kind: str
    params: tuple
    axis: int = -1
    kappa: object = None
    grad: object = None
    hess: object = None
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

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "margin": self.margin,
            "leaf_minima": [[q, v] for q, v in self.leaf_minima],
            "witness": self.witness,
            "samples": self.samples,
            "notes": self.notes,
        }

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)


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


def _verdict(minima, threshold=STRICT_MARGIN):
    m = min(v for _, v in minima)
    if m > threshold:
        return VERDICT_CONVEX, m
    if m >= -threshold:
        return VERDICT_FLAT, m
    return VERDICT_VIOLATED, m


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


def _scan_report(levels, points, vals):
    """Report on leaf-major samples: vals[i, j] at points[i, j] on leaf i."""
    minima = [(float(q), float(v)) for q, v in zip(levels, vals.min(axis=1))]
    verdict, margin = _verdict(minima)
    witness = None   # first violating sample in scan order
    if verdict == VERDICT_VIOLATED:
        i, j = np.unravel_index(int(np.argmax(vals < -STRICT_MARGIN)), vals.shape)
        witness = {"leaf": float(levels[i]), "point": list(map(float, points[i, j])),
                   "direction": None, "value": float(vals[i, j])}
    return ConvexityReport(verdict, margin, minima, witness,
                           {"leaves": len(levels), "points_per_leaf": vals.shape[1],
                            "directions": 1})


def check_hwz(speed: SpeedField, r_min: float, r_max: float,
              samples=(32, 64)) -> ConvexityReport:
    """Herglotz / Wiechert-Zoeppritz test: d/dr (r / c(r omega)) > 0.

    The derivative is evaluated from the field's gradient:
    d/dr (r/c) = (c - r dc/dr) / c^2.
    """
    if not (0 < r_min < r_max):
        raise PreconditionError(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
    n_r, n_w = samples
    omegas = _directions(n_w, speed.bounds.dim)
    radii = np.linspace(r_min, r_max, n_r)
    points = radii[:, None, None] * omegas[None]
    c, g = speed.eval(points.reshape(n_r * n_w, -1))
    c, g = c.reshape(n_r, n_w), g.reshape(points.shape)
    dcdr = np.einsum("ijk,jk->ij", g, omegas)
    return _scan_report(radii, points, (c - radii[:, None] * dcdr) / (c * c))


def check_plane_foliation(speed: SpeedField, axis: int, c1: float, c2: float,
                          samples=(32, 64)) -> ConvexityReport:
    """Parallel planes x[axis] in [c1, c2]: strictly convex iff dc/dx_axis > 0
    (normals oriented toward decreasing x[axis])."""
    if not c1 < c2:
        raise PreconditionError(f"need c1 < c2, got {c1}, {c2}")
    n_leaf, n_pt = samples
    dim = speed.bounds.dim
    lo = np.asarray(speed.bounds.lo, float)
    hi = np.asarray(speed.bounds.hi, float)
    trans = [i for i in range(dim) if i != axis]
    rng = np.random.default_rng(20240915)   # fixed placement: reproducible reports
    pts = lo[trans] + (hi[trans] - lo[trans]) * rng.random((n_pt, len(trans))) * 0.9
    levels = np.linspace(c1, c2, n_leaf)
    points = np.zeros((n_leaf, n_pt, dim))
    points[:, :, trans] = pts
    points[:, :, axis] = levels[:, None]
    g = speed.eval(points.reshape(n_leaf * n_pt, dim))[1]
    return _scan_report(levels, points, g[:, axis].reshape(n_leaf, n_pt))


def _fd_grad(f, x, h=1e-6):
    x = np.asarray(x, float)
    g = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def _fd_hess(f, x, h=1e-4):
    x = np.asarray(x, float)
    n = len(x)
    H = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n); ei[i] = h
        H[i, i] = (f(x + ei) - 2 * f0 + f(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n); ej[j] = h
            H[i, j] = H[j, i] = (f(x + ei + ej) - f(x + ei - ej)
                                 - f(x - ei + ej) + f(x - ei - ej)) / (4 * h**2)
    return H


def _leaf_point(kappa, q, omega, r_hi):
    """Point on the level set kappa = q along the ray t*omega (bisection).

    Assumes the level sets are star-shaped around the origin within r_hi.
    """
    f = lambda t: kappa(t * omega) - q
    lo, hi = 1e-9, r_hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo * omega
    if flo * fhi > 0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if fm * flo > 0:
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-13 * r_hi:
            break
    return 0.5 * (lo + hi) * omega


def _tangent_frame(nu):
    """Orthonormal basis of the tangent space at a point with unit normal nu."""
    dim = len(nu)
    if dim == 2:
        return [np.array([-nu[1], nu[0]])]
    a = np.array([1.0, 0.0, 0.0]) if abs(nu[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = a - (a @ nu) * nu
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nu, e1)
    return [e1, e2]


def check_foliation(speed: SpeedField, foliation: Foliation, domain: Domain,
                    samples=(32, 64, 16)) -> ConvexityReport:
    """General leaf-by-leaf convexity check via the conformal form.

    Leaves are sampled by ray casting from the domain center (star-shaped
    level sets); the ambient form comes from the gradient and Hessian of
    the level function.  The verification region is read as
    kappa^-1([q_lo, q_hi]) intersected with the closed domain, and that
    reading is flagged in the report notes.
    """
    n_leaf, n_pt, n_dir = samples
    dim = speed.bounds.dim

    if foliation.kind == "spheres":
        kappa = lambda x: float(np.linalg.norm(x))
        grad = lambda x: np.asarray(x) / np.linalg.norm(x)
        hess = lambda x: (np.eye(len(x)) - np.outer(x, x) / (x @ x)) / np.linalg.norm(x)
        q_lo, q_hi = foliation.params
    elif foliation.kind == "planes":
        ax = foliation.axis
        e = np.zeros(dim); e[ax if ax >= 0 else dim - 1] = 1.0
        kappa = lambda x: float(np.asarray(x) @ e)
        grad = lambda x: e.copy()
        hess = lambda x: np.zeros((dim, dim))
        q_lo, q_hi = foliation.params
    else:
        kappa = foliation.kappa
        grad = foliation.grad or (lambda x: _fd_grad(foliation.kappa, x))
        hess = foliation.hess or (lambda x: _fd_hess(foliation.kappa, x))
        q_lo, q_hi = foliation.params

    sign = 1.0 if foliation.orientation >= 0 else -1.0
    omegas = _directions(n_pt, dim)
    r_hi = float(np.max(np.abs(speed.bounds.hi)))
    minima = []
    witness = None
    note_interior_zero = False
    n_evaluated = 0

    for q in np.linspace(q_lo, q_hi, n_leaf):
        leaf_min = math.inf
        for w in omegas:
            if foliation.kind == "spheres":
                x = q * w
            elif foliation.kind == "planes":
                x = _plane_point(speed.bounds, foliation.axis, q, w)
            else:
                x = _leaf_point(kappa, q, w, r_hi)
            if x is None or not speed.bounds.contains(x):
                continue
            if domain is not None and domain.signed(x) > 1e-9:
                continue
            gk = np.asarray(grad(x), float)
            ng = float(np.linalg.norm(gk))
            if ng < GRAD_EPS:
                raise DegenerateFoliationError(
                    f"|grad kappa| = {ng:.3g} < {GRAD_EPS} on leaf {q}",
                    witness={"leaf": float(q), "point": list(map(float, x))})
            nu = sign * gk / ng
            Hk = np.asarray(hess(x), float)
            frame = _tangent_frame(nu)
            c, gc = speed.value_and_grad(x)
            corr = float(gc @ nu) / c
            for k in range(n_dir if dim == 3 else 1):
                if dim == 3:
                    th = (k + 0.5) * math.pi / n_dir
                    t = math.cos(th) * frame[0] + math.sin(th) * frame[1]
                else:
                    t = frame[0]
                II = sign * float(t @ Hk @ t) / ng
                val = II - corr
                n_evaluated += 1
                if val < leaf_min:
                    leaf_min = val
                if witness is None and val < -STRICT_MARGIN:
                    witness = {"leaf": float(q), "point": list(map(float, x)),
                               "direction": list(map(float, t)), "value": float(val)}
        if leaf_min < math.inf:
            minima.append((float(q), float(leaf_min)))
        # zero-leaf side condition: no interior point of the q = 0 leaf
        if abs(q) < 1e-12 and domain is not None:
            for w in omegas[: min(8, len(omegas))]:
                x = _leaf_point(kappa, q, w, r_hi) if foliation.kind == "kappa" else None
                if x is not None and domain.signed(x) < -1e-6:
                    note_interior_zero = True

    if not minima:
        raise PreconditionError("no foliation samples fell inside the domain")
    verdict, margin = _verdict(minima)
    notes = ["verification region read as the kappa range intersected with the "
             "closed domain (M0 is not pinned down further by the data)"]
    if note_interior_zero:
        notes.append("zero leaf has samples strictly inside the domain")
    return ConvexityReport(verdict, margin, minima,
                           witness if verdict == VERDICT_VIOLATED else None,
                           {"leaves": n_leaf, "points_per_leaf": n_pt,
                            "directions": n_dir if dim == 3 else 1,
                            "evaluated": n_evaluated},
                           notes)


def _plane_point(bounds, axis, level, omega):
    """Deterministic point on the plane x[axis] = level inside the bounds."""
    dim = bounds.dim
    ax = axis if axis >= 0 else dim - 1
    lo = np.asarray(bounds.lo, float)
    hi = np.asarray(bounds.hi, float)
    x = np.zeros(dim)
    trans = [i for i in range(dim) if i != ax]
    # map the direction sample to transverse coordinates in (lo, hi)
    for j, i in enumerate(trans):
        u = 0.5 * (1.0 + float(omega[j % len(omega)]))
        x[i] = lo[i] + u * (hi[i] - lo[i]) * 0.9 + 0.05 * (hi[i] - lo[i])
    x[ax] = level
    return x
