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
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .errors import DomainError, ModelError, PreconditionError

# Width of the evaluation collar outside the nominal bounding box.
# Models are defined on the closed domain plus this collar only.
COLLAR = 0.1


def _point(x):
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size not in (2, 3):
        raise PreconditionError(f"expected a 2- or 3-vector, got shape {p.shape}")
    return p


class SpeedField:
    """Scalar positive field c(x), evaluated on arrays of points.

    ``eval`` is the field API; subclasses implement ``_eval`` only.  This
    base class owns the shape check, the bounds check (against the box
    ``bounds`` padded by COLLAR, built once in ``_set_bounds``) and the
    positivity contract; ``value`` and ``value_and_grad`` are batches of one.
    """

    bounds: BoxDomain

    def _set_bounds(self, bounds: BoxDomain):
        self.bounds = bounds
        self._lo = bounds.lo - COLLAR
        self._hi = bounds.hi + COLLAR

    def eval(self, X):
        """(c, grad c) at the rows of X: shape (n, d) -> (n,), (n, d)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._lo.size:
            raise PreconditionError(
                f"expected an (n, {self._lo.size}) array of points, got shape {X.shape}")
        # np.count_nonzero: the cheapest test on the small batches of ray tracing
        outside = (X < self._lo) | (X > self._hi)
        if np.count_nonzero(outside):
            k = int(np.argmax(outside.any(axis=1)))
            raise DomainError(f"point {X[k].tolist()} outside field bounds "
                              f"{tuple(map(float, self.bounds.lo))}.."
                              f"{tuple(map(float, self.bounds.hi))}")
        c, g = self._eval(X)
        positive = c > 0.0
        if np.count_nonzero(positive) < len(c):
            k = int(np.argmin(positive))
            raise ModelError(f"non-positive speed {float(c[k])} at {X[k].tolist()}")
        return c, g

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
        return np.full(len(X), self.c), np.zeros(X.shape)


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
        return self.a + X @ self.b, np.tile(self.b, (len(X), 1))


class RadialField(SpeedField):
    """c(r), r = |x|, from a tabulated profile or explicit callables.

    The callables ``func`` (c) and ``dfunc`` (dc/dr) receive an array of
    radii and return an array of the same shape or a scalar.
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
            spline = CubicSpline(r, c, bc_type="natural")
            self._f = spline
            self._df = lambda s: spline(s, 1)
            r_max = r_max if r_max is not None else float(r[-1])
        else:
            if func is None or dfunc is None or r_max is None:
                raise ModelError("callable radial field needs func, dfunc and r_max")
            # adding zeros turns a scalar return value into an array
            self._f = lambda s: func(s) + np.zeros_like(s)
            self._df = lambda s: dfunc(s) + np.zeros_like(s)
        self.r_max = float(r_max)
        self._set_bounds(BoxDomain.cube(self.r_max, dim))

    def _eval(self, X):
        r = np.sqrt(np.add.reduce(X * X, axis=1))
        at_origin = r < 1e-14
        dc_r = np.where(at_origin, 0.0, self._df(r) / np.where(at_origin, 1.0, r))
        return self._f(r), dc_r[:, None] * X


class DepthField(SpeedField):
    """c depending on the last coordinate only (depth profile)."""

    def __init__(self, profile, bounds=None, dim=2):
        prof = np.asarray(profile, dtype=float)
        if prof.ndim != 2 or prof.shape[1] != 2 or prof.shape[0] < 2:
            raise ModelError("depth profile must be [[depth, c], ...] with >= 2 rows")
        if np.any(np.diff(prof[:, 0]) <= 0):
            raise ModelError("depth profile depths must increase")
        if np.any(prof[:, 1] <= 0):
            raise ModelError("depth profile speeds must be positive")
        self._spline = CubicSpline(prof[:, 0], prof[:, 1], bc_type="natural")
        self.dim = dim
        if bounds is None:
            z0, z1 = prof[0, 0], prof[-1, 0]
            w = max(abs(z0), abs(z1), 1.0)
            lo = (-w,) * (dim - 1) + (float(z0),)
            hi = (w,) * (dim - 1) + (float(z1),)
            bounds = BoxDomain(lo, hi)
        self._set_bounds(bounds)

    def _eval(self, X):
        g = np.zeros_like(X)
        g[:, -1] = self._spline(X[:, -1], 1)
        return self._spline(X[:, -1]), g


class GridField(SpeedField):
    """2D grid-sampled field with bicubic interpolation (C^1 for the ray ODE).

    In the collar the field takes the value and gradient at the nearest
    point of the grid (constant extension); rays that exit a domain the grid
    covers reach the collar only inside their exit step.
    """

    def __init__(self, grid: "Grid2D", values):
        vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.nx, grid.ny):
            raise ModelError(f"grid values shape {vals.shape} != ({grid.nx}, {grid.ny})")
        if np.any(vals <= 0):
            i, j = np.unravel_index(int(np.argmax(vals <= 0)), vals.shape)
            raise ModelError(f"non-positive speed {vals[i, j]} at grid node ({i}, {j})")
        self.grid = grid
        self.values = vals.copy()
        self.values.setflags(write=False)
        xs, ys = grid.nodes()
        self._spline = RectBivariateSpline(xs, ys, vals, kx=3, ky=3)
        self._set_bounds(BoxDomain((xs[0], ys[0]), (xs[-1], ys[-1])))

    def _eval(self, X):
        X = np.clip(X, self.bounds.lo, self.bounds.hi)
        x, y = X[:, 0], X[:, 1]
        g = np.column_stack([self._spline.ev(x, y, dx=1), self._spline.ev(x, y, dy=1)])
        return self._spline.ev(x, y), g


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

    def cs_field(self) -> SpeedField:
        return DerivedSpeed(self, "s")


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
        lam, g_lam = self.material.lam.eval(X)
        mu, g_mu = self.material.mu.eval(X)
        rho, g_rho = self.material.rho.eval(X)
        if self.mode == "p":
            c = np.sqrt((lam + 2.0 * mu) / rho)
            top = g_lam + 2.0 * g_mu
        else:
            c = np.sqrt(mu / rho)
            top = g_mu
        return c, (top - (c * c)[:, None] * g_rho) / (2.0 * rho * c)[:, None]


def wave_speeds(material: ElasticMaterial, x):
    """(c_p, c_s) = (sqrt((lam+2 mu)/rho), sqrt(mu/rho)) at x."""
    return material.wave_speeds(_point(x))


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
        """Counterclockwise walk from lo corner: bottom, right, top, left (2D)."""
        w, h = self.widths
        s = s % self.perimeter
        if s < w:
            return np.array([self.lo[0] + s, self.lo[1]])
        s -= w
        if s < h:
            return np.array([self.hi[0], self.lo[1] + s])
        s -= h
        if s < w:
            return np.array([self.hi[0] - s, self.hi[1]])
        s -= w
        return np.array([self.lo[0], self.hi[1] - s])

    def boundary_param(self, x):
        w, h = self.widths
        eps = 1e-9
        if abs(x[1] - self.lo[1]) < eps:
            return float(x[0] - self.lo[0])
        if abs(x[0] - self.hi[0]) < eps:
            return float(w + x[1] - self.lo[1])
        if abs(x[1] - self.hi[1]) < eps:
            return float(w + h + self.hi[0] - x[0])
        if abs(x[0] - self.lo[0]) < eps:
            return float(2 * w + h + self.hi[1] - x[1])
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


def load_model(source) -> Model:
    """Load a model from a path, JSON string, or already-parsed document."""
    doc = source
    if isinstance(source, (str, os.PathLike)):
        text = source if str(source).lstrip().startswith("{") else Path(source).read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
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
        material = None
        if "material" in doc:
            m = doc["material"]
            material = ElasticMaterial(
                lam=field_from_spec(m["lambda"], dim, box),
                mu=field_from_spec(m["mu"], dim, box),
                rho=field_from_spec(m["rho"], dim, box),
            )
        return Model(speed=speed, material=material, domain=domain)
    except KeyError as e:
        raise ModelError(f"model is missing required key {e.args[0]!r}") from e
    except (AttributeError, IndexError, TypeError, ValueError) as e:
        # a value of the wrong type or shape somewhere in the document
        raise ModelError(f"malformed model value: {e}") from e
