"""Speed fields, elastic materials, domains and grids.

Conventions used throughout the package:

* the medium with speed c(x) carries the conformal metric c^-2 dx^2;
  a vector v at x is unit in that metric iff its Euclidean norm is c(x),
  and the metric length of a curve is the Euclidean line integral of 1/c;
* all models are dimensionless (length unit = domain scale, time =
  length / speed);
* fields are immutable after construction and safe to share between
  workers.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ModelError, PreconditionError

# Width of the evaluation collar outside the nominal bounding box.
# Models are defined on the closed domain plus this collar only.
COLLAR = 0.1


class Cubic:
    """Piecewise cubic through the knots (x, y) with slopes m there, by default
    the natural spline's; the end pieces extrapolate.  The pieces of scipy's
    CubicSpline (natural) and CubicHermiteSpline, in the power basis."""

    def __init__(self, x, y, m=None):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        h, slope = np.diff(x), np.diff(y) / np.diff(x)
        if m is None:
            # natural ends: a Thomas sweep turns r (held in m) into the slopes m of
            # h[i] m[i-1] + 2 (h[i-1] + h[i]) m[i] + h[i-1] m[i+1] = r[i]
            lo, up = [0.0, *h[1:], h[-1]], [h[0], *h[:-1], 0.0]
            dg = [2 * h[0], *(2 * (h[:-1] + h[1:])), 2 * h[-1]]
            m = [3 * (y[1] - y[0]), *(3 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])),
                 3 * (y[-1] - y[-2]), 0.0]              # a zero past the end
            for i in range(1, len(x)):
                w = lo[i] / dg[i - 1]
                dg[i] -= w * up[i - 1]
                m[i] -= w * m[i - 1]
            for i in range(len(x) - 1, -1, -1):
                m[i] = (m[i] - up[i] * m[i + 1]) / dg[i]
        m = np.asarray(m[:len(x)], dtype=float)         # without the sweep's end zero
        t = (m[:-1] + m[1:] - 2 * slope) / h
        a, b = t / h, (slope - m[:-1]) / h - t
        self.x, self._inner = x, x[1:-1]
        # pairs on each interval: (x[i], x[i]), then the coefficients of
        # (a d^3 + b d^2 + m d + y, 0 d^3 + 3a d^2 + 2b d + m) in d = s - x[i]
        self._c = np.stack((x[:-1], x[:-1], a, 0 * a, b, 3 * a, m[:-1], 2 * b, y[:-1],
                            m[:-1])).reshape(5, 2, -1)

    def eval(self, s):
        """(value, first derivative) at the points of the array s, stacked."""
        c = self._c.take(self._inner.searchsorted(s, side="right"), axis=2)  # end pieces extend
        d = s - c[0]
        return ((c[1] * d + c[2]) * d + c[3]) * d + c[4]

    def bends(self):
        """The knots and each piece's root of y'' (linear there) inside it: with an interval's
        ends they hold the least y - s y' on it for s > 0, as (y - s y')' = -s y''."""
        x0, a, b = self._c[0, 0], self._c[1, 0], self._c[2, 0]
        root = x0 - np.divide(b, 3 * a, out=0 * a, where=a != 0)
        return np.concatenate((self.x, root[(root > x0) & (root < self.x[1:])]))


class SpeedField:
    """Scalar positive field c(x), evaluated on arrays of points.

    ``eval`` is the field API; subclasses implement ``_eval`` only: c (n,) and
    grad c (d, n) at the component rows X (d, n), unchecked, as new arrays
    (the ray tracer scales the gradient in place).  This base class
    owns the shape, bounds (the box ``bounds`` padded by COLLAR) and positivity
    checks, in ``eval`` and in ``_check`` of points already evaluated (the ray
    tracer's stages).  As the check may come after it, ``_eval`` must not warn
    on a finite point outside the collar, nor raise there but through the
    checks of the fields it evaluates (DerivedSpeed's parts raise their own
    errors).  ``value`` and ``value_and_grad`` are batches of one.  ``knots``
    holds the radii |x| at which c's third derivative may jump (a radial
    profile's interior nodes), where the ray tracer ends its steps; it is
    empty for every other field.
    """

    bounds: BoxDomain
    knots = np.empty(0)

    def _set_bounds(self, bounds: BoxDomain):
        self.bounds = bounds
        self._lo = (bounds.lo - COLLAR)[:, None]
        self._hi = (bounds.hi + COLLAR)[:, None]

    def eval(self, X):
        """(c, grad c) at the rows of X: shape (n, d) -> (n,), (n, d)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._lo.size:
            raise PreconditionError(
                f"expected an (n, {self._lo.size}) array of points, got shape {X.shape}")
        X = X.T
        # np.count_nonzero: the cheapest test on the small batches of ray tracing
        outside = (X < self._lo) | (X > self._hi)
        if np.count_nonzero(outside):
            k = int(np.argmax(outside.any(axis=0)))
            raise DomainError(f"point {X[:, k].tolist()} outside field bounds "
                              f"{tuple(map(float, self.bounds.lo))}.."
                              f"{tuple(map(float, self.bounds.hi))}")
        c, G = self._eval(X)
        positive = c > 0.0
        if np.count_nonzero(positive) < len(c):
            k = int(np.argmin(positive))
            raise ModelError(f"non-positive speed {float(c[k])} at {X[:, k].tolist()}")
        return c, G.T

    def _check(self, X, c):
        """Raise eval's error at the first bad one of the points X (m, d, n) with speeds c."""
        if np.count_nonzero((X < self._lo) | (X > self._hi)) or np.count_nonzero(c > 0) < c.size:
            for x in X:
                self.eval(x.T)

    def value(self, x) -> float:
        return float(self.eval(np.asarray(x, dtype=float)[None])[0][0])

    def value_and_grad(self, x):
        c, g = self.eval(np.asarray(x, dtype=float)[None])
        return float(c[0]), g[0]

    def _eval(self, X):  # pragma: no cover - abstract
        raise NotImplementedError


class ConstantField(SpeedField):
    def __init__(self, c, bounds=None, dim=2):
        if not c > 0:
            raise ModelError(f"constant field must be positive, got {c}")
        self.c = float(c)
        self._set_bounds(bounds or BoxDomain.cube(1.0, dim))

    def _eval(self, X):
        return np.full(X.shape[1], self.c), np.zeros(X.shape)


class LinearField(SpeedField):
    """c(x) = a + b . x  (affine)."""

    def __init__(self, a, b, bounds=None):
        self.a = float(a)
        self.b = np.asarray(b, dtype=float)
        self._set_bounds(bounds or BoxDomain.cube(1.0, self.b.size))
        corners = np.array(list(itertools.product(*zip(self.bounds.lo, self.bounds.hi))))
        bad = self.a + corners @ self.b <= 0
        if bad.any():
            corner = tuple(corners[int(np.argmax(bad))].tolist())
            raise ModelError(f"affine field non-positive at corner {corner}")

    def _eval(self, X):
        # the product on (n, d) rows, as BLAS rounds it there
        return self.a + np.ascontiguousarray(X.T) @ self.b, np.tile(self.b[:, None], X.shape[1])


class RadialField(SpeedField):
    """c(r), r = |x|, from a tabulated profile (its natural spline ``cubic``, its
    interior nodes the ``knots``) or callables.

    The callables ``func`` (c) and ``dfunc`` (dc/dr), which need ``r_max``, receive
    an array of radii and return an array of the same shape or a scalar.
    """

    def __init__(self, profile=None, func=None, dfunc=None, r_max=None, dim=2):
        if profile is not None:
            prof = np.asarray(profile, dtype=float)
            if prof.ndim != 2 or prof.shape[1] != 2 or prof.shape[0] < 2:
                raise ModelError("radial profile must be [[r, c], ...] with >= 2 rows")
            r, c = prof[:, 0], prof[:, 1]
            if np.any(np.diff(r) <= 0):
                raise ModelError("radial profile radii must increase")
            if np.any(c <= 0):
                bad = int(np.argmax(c <= 0))
                raise ModelError(f"radial profile node {bad} (r={r[bad]}) has non-positive speed {c[bad]}")
            self.cubic = Cubic(r, c)
            self._c_dc, self.knots, r_max = self.cubic.eval, r[1:-1], r[-1]
        else:
            if func is None or dfunc is None or r_max is None:
                raise ModelError("callable radial field needs func, dfunc and r_max")
            self.cubic = None
            # adding zeros turns a scalar return value into an array
            self._c_dc = lambda s: (func(s) + np.zeros_like(s), dfunc(s) + np.zeros_like(s))
        self.r_max = float(r_max)
        self._set_bounds(BoxDomain.cube(self.r_max, dim))

    def _eval(self, X):
        r = np.sqrt(np.add.reduce(X * X, axis=0))
        c, dc = self._c_dc(r)
        # grad c = dc / inf = 0 at the origin; a NaN radius still gives a NaN gradient
        return c, dc / np.where(r < 1e-14, np.inf, r) * X


class DepthField(SpeedField):
    """c depending on the last coordinate only (depth profile), on the box
    spanned by the profile's depths and +-max(|depth|, 1) across."""

    def __init__(self, profile, dim=2):
        prof = np.asarray(profile, dtype=float)
        if prof.ndim != 2 or prof.shape[1] != 2 or prof.shape[0] < 2:
            raise ModelError("depth profile must be [[depth, c], ...] with >= 2 rows")
        if np.any(np.diff(prof[:, 0]) <= 0):
            raise ModelError("depth profile depths must increase")
        if np.any(prof[:, 1] <= 0):
            raise ModelError("depth profile speeds must be positive")
        self._cubic = Cubic(prof[:, 0], prof[:, 1])
        z0, z1 = float(prof[0, 0]), float(prof[-1, 0])
        w = max(abs(z0), abs(z1), 1.0)
        self._set_bounds(BoxDomain((-w,) * (dim - 1) + (z0,), (w,) * (dim - 1) + (z1,)))

    def _eval(self, X):
        c, dc = self._cubic.eval(X[-1])
        return c, np.concatenate((np.zeros_like(X[:-1]), dc[None]))


class GridField(SpeedField):
    """2D grid-sampled field with bicubic interpolation (C^1 for the ray ODE).

    In the collar it continues by its tangent plane at the nearest grid point
    p, c(p) + grad c(p).(x - p), with gradient grad c(p) (C^0, and C^1 across
    the edge); rays that exit a domain the grid covers reach the collar only
    inside their exit step.
    """

    def __init__(self, grid: "Grid2D", values):
        vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.nx, grid.ny):
            raise ModelError(f"grid values shape {vals.shape} != ({grid.nx}, {grid.ny})")
        if np.any(vals <= 0):
            i, j = np.unravel_index(int(np.argmax(vals <= 0)), vals.shape)
            raise ModelError(f"non-positive speed {vals[i, j]} at grid node ({i}, {j})")
        xs, ys = grid.nodes()
        from scipy.interpolate import RectBivariateSpline   # loaded for grid fields only
        self._spline = RectBivariateSpline(xs, ys, vals, kx=3, ky=3)
        self._set_bounds(BoxDomain((xs[0], ys[0]), (xs[-1], ys[-1])))

    def _eval(self, X):
        p = np.clip(X, self.bounds.lo[:, None], self.bounds.hi[:, None])
        g = np.array([self._spline.ev(*p, dx=1), self._spline.ev(*p, dy=1)])
        return self._spline.ev(*p) + np.einsum("ij,ij->j", g, X - p), g


@dataclass(frozen=True)
class Grid2D:
    origin: tuple
    h: float
    nx: int
    ny: int

    def __post_init__(self):
        if not self.h > 0:
            raise ModelError(f"grid spacing must be positive, got {self.h}")
        if self.nx < 8 or self.ny < 8:
            raise ModelError(f"need >= 8 nodes per axis, got ({self.nx}, {self.ny})")

    def nodes(self):
        xs = self.origin[0] + self.h * np.arange(self.nx)
        ys = self.origin[1] + self.h * np.arange(self.ny)
        return xs, ys


@dataclass(frozen=True)
class ElasticMaterial:
    """Lame parameter fields and density; speeds are derived."""

    lam: SpeedField
    mu: SpeedField
    rho: SpeedField

    def wave_speeds(self, x):
        lam, mu, rho = self.lam.value(x), self.mu.value(x), self.rho.value(x)
        return float(np.sqrt((lam + 2.0 * mu) / rho)), float(np.sqrt(mu / rho))

    def cp_field(self) -> SpeedField:
        return DerivedSpeed(self, "p")


class DerivedSpeed(SpeedField):
    """c_p or c_s of a material as a SpeedField.

    From c_p^2 = (lam + 2 mu) / rho and c_s^2 = mu / rho the gradients are
    grad c_p = (grad lam + 2 grad mu - c_p^2 grad rho) / (2 rho c_p) and
    grad c_s = (grad mu - c_s^2 grad rho) / (2 rho c_s).
    """

    def __init__(self, material: ElasticMaterial, mode: str):
        if mode not in ("p", "s"):
            raise PreconditionError(f"mode must be 'p' or 's', got {mode!r}")
        self.material = material
        self.mode = mode
        self._set_bounds(material.mu.bounds)

    def _eval(self, X):
        m = self.material       # its fields raise their own errors at a bad point
        (lam, g_lam), (mu, g_mu), (rho, g_rho) = (f.eval(X.T) for f in (m.lam, m.mu, m.rho))
        if self.mode == "p":
            c = np.sqrt((lam + 2.0 * mu) / rho)
            top = g_lam + 2.0 * g_mu
        else:
            c = np.sqrt(mu / rho)
            top = g_mu
        return c, ((top - (c * c)[:, None] * g_rho) / (2.0 * rho * c)[:, None]).T


# ---------------------------------------------------------------------------
# domains


class Domain:
    """Region with signed boundary function b (negative inside), outward
    unit normal on the boundary, and bounding box lo..hi (read-only arrays)."""

    dim: int
    lo: np.ndarray
    hi: np.ndarray

    def signed(self, x):  # pragma: no cover - abstract
        """b at the points along the last axis of x (a float for one point)."""
        raise NotImplementedError

    def normal(self, x) -> np.ndarray:
        """Outward unit normals at the boundary points along the last axis of x."""
        x = np.asarray(x, dtype=float)
        b = np.reshape(self.signed(x), -1)
        off = np.nonzero(np.abs(b) > 1e-9)[0]
        if off.size:
            p = x.reshape(-1, x.shape[-1])[off[0]]
            raise PreconditionError(f"point {tuple(p.tolist())} not on the boundary (b = {b[off[0]]:.3g})")
        return self._normal(x)


class DiskDomain(Domain):
    """Ball/disk of radius R centered at the origin."""

    def __init__(self, radius, dim=2):
        if not radius > 0:
            raise ModelError(f"radius must be positive, got {radius}")
        self.radius = float(radius)
        self.dim = dim
        self.hi = np.full(dim, self.radius)
        self.lo = -self.hi
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    def signed(self, x):
        # |x| as np.linalg.norm(x, axis=-1) computes it, without its call
        # overhead (one call per ray-tracing step)
        x = np.asarray(x)
        return np.sqrt(np.add.reduce(x * x, axis=-1)) - self.radius

    def _normal(self, x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    @property
    def perimeter(self):
        return 2 * np.pi * self.radius

    def boundary_point(self, s):
        """Boundary point at arclength s from (R, 0), counterclockwise (2D)."""
        a = s / self.radius
        return np.array([self.radius * np.cos(a), self.radius * np.sin(a)])

    def boundary_param(self, x):
        a = np.arctan2(x[1], x[0]) % (2 * np.pi)
        return float(a * self.radius)


# the edges of a 2D box: the axis each is normal to, then 0 for its lo side
# or 1 for its hi side
EDGES = {"left": (0, 0), "right": (0, 1), "bottom": (1, 0), "top": (1, 1)}
_WALK = ("bottom", "right", "top", "left")   # counterclockwise; the first two run lo to hi


class BoxDomain(Domain):
    """Axis-aligned box; also the bounds of every speed field."""

    def __init__(self, lo, hi):
        self.lo = np.array(lo, dtype=float)
        self.hi = np.array(hi, dtype=float)
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ModelError(f"invalid box {lo}..{hi}")
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)
        self.dim = self.lo.size

    @staticmethod
    def cube(half_width, dim=2):
        return BoxDomain((-half_width,) * dim, (half_width,) * dim)

    def signed(self, x):
        d = np.maximum(self.lo - x, x - self.hi)
        inside = np.all(d <= 0, axis=-1)
        # inside: -distance to the nearest face; outside: distance to the box
        return np.where(inside, np.max(d, axis=-1),
                        np.linalg.norm(np.maximum(d, 0.0), axis=-1))[()]

    def _normal(self, x):
        # the face nearest to x (furthest out of, outside); ties: lower axis, lo face
        below, above = self.lo - x, x - self.hi
        i = np.argmax(np.maximum(below, above), axis=-1)[..., None]
        side = np.where(np.take_along_axis(below, i, -1) >= np.take_along_axis(above, i, -1),
                        -1.0, 1.0)
        return np.where(np.arange(self.dim) == i, side, 0.0)

    @property
    def widths(self):
        return self.hi - self.lo

    @property
    def perimeter(self):
        if self.dim != 2:
            raise ModelError("operation defined for 2D domains only")
        w, h = self.widths
        return 2 * (w + h)

    def edge_point(self, edge, s):
        """The point at coordinate s along an edge (a key of EDGES)."""
        axis, side = EDGES[edge]
        x = [s, s]
        x[axis] = (self.lo, self.hi)[side][axis]
        return tuple(x)

    def nearest_edge(self, x):
        """The edge nearest to the point x; ties go to the first in EDGES."""
        def distance(edge):
            axis, side = EDGES[edge]
            return abs(x[axis] - (self.lo, self.hi)[side][axis])
        return min(EDGES, key=distance)

    def boundary_point(self, s):
        """The point at arclength s of the counterclockwise _WALK from the lo corner (2D)."""
        s = s % self.perimeter
        for k, edge in enumerate(_WALK):
            along = 1 - EDGES[edge][0]
            if s < self.widths[along] or k == 3:
                return np.array(self.edge_point(
                    edge, self.lo[along] + s if k < 2 else self.hi[along] - s))
            s -= self.widths[along]

    def boundary_param(self, x):
        s = 0.0
        for k, edge in enumerate(_WALK):
            axis, side = EDGES[edge]
            if abs(x[axis] - (self.lo, self.hi)[side][axis]) < 1e-9:
                along = 1 - axis
                return float(s + x[along] - self.lo[along] if k < 2
                             else s + self.hi[along] - x[along])
            s += self.widths[1 - axis]
        raise PreconditionError(f"point {tuple(map(float, x))} not on the box boundary")


# ---------------------------------------------------------------------------
# model files (JSON, "format": 1)

MODEL_FORMAT = 1


def field_from_spec(spec, dim=2, bounds=None) -> SpeedField:
    """Build a field from its JSON fragment (a bare number means constant);
    constant and linear fields live on `bounds` (default: [-1, 1]^dim)."""
    if isinstance(spec, (int, float)):
        spec = {"kind": "constant", "c": spec}
    kind = spec.get("kind")
    if kind == "constant":
        return ConstantField(spec["c"], bounds=bounds, dim=dim)
    if kind == "linear":
        return LinearField(spec["a"], spec["b"], bounds=bounds)
    if kind == "radial":
        return RadialField(profile=spec["profile"], dim=dim)
    if kind == "depth":
        return DepthField(profile=spec["profile"], dim=dim)
    if kind == "grid":
        origin = tuple(spec["origin"])
        values = np.asarray(spec["values"], dtype=float)
        grid = Grid2D(origin, float(spec["h"]), values.shape[0], values.shape[1])
        return GridField(grid, values)
    raise ModelError(f"unknown field kind {kind!r}")


@dataclass(frozen=True)
class Model:
    """Deserialized model file: optional speed, material, and domain."""

    speed: SpeedField | None = None
    material: ElasticMaterial | None = None
    domain: Domain | None = None

    def lens_speed(self) -> SpeedField:
        """The field lens/ray operations run on: explicit speed, else c_p."""
        if self.speed is not None:
            return self.speed
        if self.material is not None:
            return self.material.cp_field()
        raise ModelError("model defines neither a speed nor a material")


def domain_from_spec(spec) -> Domain:
    shape = spec.get("shape")
    if shape in ("disk", "ball"):
        return DiskDomain(spec["radius"], dim=3 if shape == "ball" else 2)
    if shape == "box":
        return BoxDomain(spec["lo"], spec["hi"])
    raise ModelError(f"unknown domain shape {shape!r}")


def json_int(text):
    """json's parse_int hook: the integer, or ValueError when a float cannot hold it."""
    if not np.isfinite(float(text)):
        raise ValueError(f"an integer of {len(text.lstrip('-'))} digits is too large for a float")
    return int(text)


def load_model(source) -> Model:
    """Load a model from a path, JSON string, or already-parsed document, each
    read as JSON text: NaN, infinities and integers no float holds are refused."""
    def finite(text):       # json reads NaN, Infinity and 1e999 as floats
        if not np.isfinite(value := float(text)):
            raise ModelError(f"model JSON holds the non-finite number {text}")
        return value
    try:
        if not isinstance(source, (str, os.PathLike)):
            text = json.dumps(source)
        else:
            text = source if str(source).lstrip().startswith("{") else Path(source).read_text()
        doc = json.loads(text, parse_float=finite, parse_constant=finite, parse_int=json_int)
    except (TypeError, ValueError, RecursionError) as exc:  # JSONDecodeError; deep [[[...
        raise ModelError(f"malformed model JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"a model must be a JSON object, got {type(doc).__name__}")
    fmt = doc.get("format", MODEL_FORMAT)
    if fmt != MODEL_FORMAT:
        raise ModelError(f"unsupported model format {fmt}")
    try:
        domain = domain_from_spec(doc["domain"]) if "domain" in doc else None
        dim = domain.dim if domain is not None else 2
        box = BoxDomain(domain.lo, domain.hi) if domain is not None else None

        speed = field_from_spec(doc["speed"], dim, box) if "speed" in doc else None
        material = None if "material" not in doc else ElasticMaterial(
            *(field_from_spec(doc["material"][k], dim, box) for k in ("lambda", "mu", "rho")))
        return Model(speed=speed, material=material, domain=domain)
    except KeyError as e:
        raise ModelError(f"model is missing required key {e.args[0]!r}") from e
    except (AttributeError, IndexError, TypeError, ValueError) as e:
        # a value of the wrong type or shape somewhere in the document
        raise ModelError(f"malformed model value: {e}") from e
