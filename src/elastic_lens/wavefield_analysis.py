"""Wavefield post-processing: mode splitting, arrival picking, lens extraction.

Four independent tools:

* a discrete Helmholtz split of an interior displacement field into its
  curl-free (p) and divergence-free (s) parts,
* a deterministic envelope-threshold first-arrival picker,
* extraction of travel-time pairs (t_p, t_s) from traction traces with
  comparison against ray-theoretic path lengths,
* conversion of boundary Neumann data sigma(u).nu on a flat surface into
  the full Cauchy data (the normal derivative of u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, PreconditionError

# ---------------------------------------------------------------------------
# Helmholtz mode split
# ---------------------------------------------------------------------------
#
# The grid data are treated as cell-centered samples.  First derivatives use
# the 4th-order centered stencil with parity-respecting reflection at the
# edges (components normal to an edge extend antisymmetrically, tangential
# ones symmetrically), which makes the stencil act exactly as a diagonal
# multiplier on the DCT-II / DST-II mode basis.  The scalar potential solve
# is then an exact diagonal division in DCT space, so the projected parts
# satisfy the discrete constraints curl(p) = 0 and div(s) = 0 to round-off
# and the projection is idempotent.

_MIN_NODES = 16


def _pad_parity(f, axis, parity):
    pad = [(0, 0)] * f.ndim
    pad[axis] = (2, 2)
    g = np.pad(f, pad, mode="symmetric")
    if parity == "odd":
        ends = np.moveaxis(g, axis, 0)     # a view of g
        ends[:2] = -ends[:2]
        ends[-2:] = -ends[-2:]
    return g


def _deriv(f, h, axis, parity):
    """4th-order centered d/dx_axis with even/odd reflection padding."""
    g = _pad_parity(f, axis, parity)
    n = f.shape[axis]

    def sl(shift):
        s = [slice(None)] * f.ndim
        s[axis] = slice(2 + shift, 2 + shift + n)
        return g[tuple(s)]

    return (8.0 * (sl(1) - sl(-1)) - (sl(2) - sl(-2))) / (12.0 * h)


def _stencil_symbol(n, h):
    theta = np.pi * np.arange(n) / n
    return (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * h)


def discrete_divergence(u, h):
    """div u with the split's stencils (u1 odd across x-edges, u2 across y)."""
    return _deriv(u[:, :, 0], h, 0, "odd") + _deriv(u[:, :, 1], h, 1, "odd")


def discrete_curl(u, h):
    """Scalar curl d(u2)/dx - d(u1)/dy with the split's stencils."""
    return _deriv(u[:, :, 1], h, 0, "even") - _deriv(u[:, :, 0], h, 1, "even")


@dataclass
class ModeFields:
    """Curl-free and divergence-free parts of a displacement field."""

    p_part: np.ndarray
    s_part: np.ndarray


def project_modes(u, h) -> ModeFields:
    """Split u = p + s with discretely curl-free p and divergence-free s.

    u has shape (nx, ny, 2) on a uniform grid of spacing h.  The curl-free
    part is grad(phi) with Delta(phi) = div(u) solved exactly on the
    reflected-mode basis; s is the remainder, so p + s = u holds exactly.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 3 or u.shape[2] != 2:
        raise PreconditionError(f"expected a (nx, ny, 2) field, got shape {u.shape}")
    nx, ny = u.shape[:2]
    if nx < _MIN_NODES or ny < _MIN_NODES:
        raise PreconditionError(f"need >= {_MIN_NODES} nodes per axis, got ({nx}, {ny})")
    if not np.all(np.isfinite(u)):
        raise NumericalError("field has non-finite values")

    from scipy.fft import dctn, idctn   # loaded on first use: no command splits modes
    d = discrete_divergence(u, h)
    dhat = dctn(d, type=2)
    sx = _stencil_symbol(nx, h)
    sy = _stencil_symbol(ny, h)
    denom = sx[:, None] ** 2 + sy[None, :] ** 2
    denom[0, 0] = 1.0          # zero mode: potential defined up to a constant
    phihat = -dhat / denom
    phihat[0, 0] = 0.0
    phi = idctn(phihat, type=2)

    p = np.empty_like(u)
    p[:, :, 0] = _deriv(phi, h, 0, "even")
    p[:, :, 1] = _deriv(phi, h, 1, "even")
    return ModeFields(p, u - p)


# ---------------------------------------------------------------------------
# Arrival picking
# ---------------------------------------------------------------------------


def _causal_mean(x, width_samples):
    """Moving average over the past `width_samples` samples (causal)."""
    w = max(int(width_samples), 1)
    c = np.cumsum(np.concatenate(([0.0], x)))
    idx = np.arange(len(x))
    lo = np.maximum(idx - w + 1, 0)
    return (c[idx + 1] - c[lo]) / (idx + 1 - lo)


def _highpass(x, dt, fc):
    """Causal 4th-order Butterworth high-pass of x with corner fc: two
    biquads from the bilinear transform prewarped to fc, each run in
    transposed direct form II (the recurrence of scipy's sosfilt)."""
    k, y = math.tan(math.pi * fc * dt), x.tolist()
    for q in (0.5 / math.cos(math.pi / 8), 0.5 / math.cos(3 * math.pi / 8)):
        n = 1.0 / (1.0 + k / q + k * k)
        b0, b1, a1, a2 = n, -2.0 * n, 2.0 * (k * k - 1.0) * n, (1.0 - k / q + k * k) * n
        z0 = z1 = 0.0
        for j, v in enumerate(y):
            y[j] = out = b0 * v + z0
            z0 = b1 * v - a1 * out + z1
            z1 = b0 * v - a2 * out                  # b2 = b0
    return np.array(y)


def _envelope(samples, dt, f0):
    """Causal envelope of a (possibly multi-component) oscillatory trace.

    Each component is high-passed by a causal 4th-order Butterworth with
    corner f0/4 (slow backgrounds below f0/10 are suppressed by more than
    30 dB while the signal band passes unchanged, and a causal filter
    never smears onsets backwards in time), paired with its scaled
    derivative as a quadrature component; the combined magnitude is
    smoothed causally over a window of width 1/(4 f0).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    mag2 = np.zeros(x.shape[0])
    for c in range(x.shape[1]):
        hp = _highpass(x[:, c], dt, 0.25 * f0)
        q = np.gradient(hp, dt) / (2.0 * np.pi * f0)
        mag2 += hp * hp + q * q
    return _causal_mean(np.sqrt(mag2), 0.25 / (f0 * dt))


def _onset(env, t, eta, lo, hi, top=None):
    """Onset time in the span [lo, hi) of the envelope env sampled at times
    t, or None when no sample of it reaches a positive threshold, eta times
    the maximum over [lo, top) (by default, the span).  The onset is
    interpolated linearly from the sample before the first one reaching
    the threshold, and is t[lo] when the span opens above it."""
    thr = eta * env[lo:hi if top is None else top].max(initial=0.0)
    above = env[lo:hi] >= thr
    if thr <= 0.0 or not above.any():
        return None
    j = lo + int(np.argmax(above))
    if j == lo:
        return float(t[lo])
    e0, e1 = env[j - 1], env[j]
    return float(t[j - 1] + (thr - e0) / (e1 - e0) * (t[j] - t[j - 1]))


def pick_first_arrival(samples, eta: float, f0: float, dt: float):
    """First time the causal envelope of `samples` (sample interval dt)
    reaches eta times its maximum.

    Returns the onset time, or None for an all-zero trace.  Picks are
    invariant under amplitude scaling and deterministic.
    """
    samples = np.asarray(samples, dtype=float)
    if not 0.0 < eta < 1.0:
        raise PreconditionError(f"threshold eta must lie in (0, 1), got {eta}")
    if len(samples) == 0:
        raise PreconditionError("empty trace")
    env = _envelope(samples, dt, f0)
    return _onset(env, dt * np.arange(len(env)), eta, 0, len(env))


# ---------------------------------------------------------------------------
# Lens extraction
# ---------------------------------------------------------------------------


@dataclass
class ExtractedLens:
    """Per-receiver travel-time pair with ray-theoretic comparison slots."""

    t_p: float | None
    t_s: float | None
    ell_p: float | None
    ell_s: float | None
    rel_err_p: float | None = None
    rel_err_s: float | None = None
    flags: list = field(default_factory=list)


def reference_onset(source, dt: float, eta: float) -> float:
    """Picker onset time of the bare source pulse, used for self-calibration.

    Travel times are differences of picker onsets, so the systematic offset
    between the envelope-threshold crossing and the true wavefront is
    removed by picking the source wavelet itself with identical settings.
    """
    t = dt * np.arange(int(round((source.delay + 3.0 / source.f0) / dt)) + 1)
    onset = pick_first_arrival(source.pulse(t), eta, source.f0, dt)
    if onset is None:
        raise PreconditionError("source pulse produced no reference onset")
    return onset


def _travel_time(env, t, ell, t_ref, f0, eta, other=None):
    """(onset in the window [ell + t_ref +- 1.5/f0] less t_ref, whether the
    envelope peaks on the last sample of the pulse span), or (None, False).
    The threshold comes from the span of the predicted pulse, which the
    window may cut: from the window's start to 3/f0 (the pulse's duration)
    past the predicted onset, or to the start of a later arrival `other`."""
    if ell is None:
        return None, False
    lo = np.searchsorted(t, ell + t_ref - 1.5 / f0)
    hi = np.searchsorted(t, ell + t_ref + 1.5 / f0, side="right")
    end = ell + t_ref + 3.0 / f0
    top = np.searchsorted(t, min(end, other) if other is not None and other > ell else end)
    onset = _onset(env, t, eta, lo, hi, top)
    return ((None, False) if onset is None
            else (onset - t_ref, bool(env[top - 1] == env[lo:top].max())))


def extract_lens(traces, dt: float, source, predictions, eta: float = 0.05) -> list:
    """Turn traction traces into (t_p, t_s) pairs matched to ray predictions.

    traces: one run's tractions, (receivers, samples, 2) sampled every dt, as
    `simulate_dn` returns them.  predictions: per-receiver (ell_p, ell_s)
    travel times from the ray tracer (use None for an unavailable mode).
    Each predicted arrival is picked inside a window of half-width 1.5/f0
    around the predicted time, as the first crossing of eta times the
    envelope's peak over the whole predicted pulse (same onset convention as
    the reference pulse, so the picker bias cancels), which moving the
    window's edges does not move.
    Windowing keeps later boundary-converted phases out of the onset
    search; ambiguity (predictions closer than 3/f0, i.e. overlapping
    windows), pick collisions and a peak on the pulse span's last sample
    are flagged rather than silently resolved.
    """
    if len(traces) != len(predictions):
        raise PreconditionError("traces and predictions must align")
    f0, t_ref = source.f0, reference_onset(source, dt, eta)
    out = []
    for samples, (ell_p, ell_s) in zip(traces, predictions):
        flags = []
        env = _envelope(samples, dt, f0)
        t = dt * np.arange(len(env))
        if ell_p is not None and ell_s is not None and abs(ell_s - ell_p) < 3.0 / f0:
            flags.append("ambiguous-prediction")
        if ell_p is None and ell_s is None:
            flags.append("no-prediction")

        (t_p, edge_p), (t_s, edge_s) = (_travel_time(env, t, ell, t_ref, f0, eta, other)
                                        for ell, other in ((ell_p, ell_s), (ell_s, ell_p)))
        flags += [f"{m}-peak-on-edge" for m, edge in (("p", edge_p), ("s", edge_s)) if edge]
        if t_p is None and t_s is None:
            flags.append("no-pick")
        if t_p is not None and t_s is not None:
            if abs(t_s - t_p) < 0.5 / f0:
                flags.append("pick-collision")
            if not t_p < t_s:
                flags.append("mode-order-violation")

        rel_p = abs(t_p - ell_p) / ell_p if (t_p is not None and ell_p) else None
        rel_s = abs(t_s - ell_s) / ell_s if (t_s is not None and ell_s) else None
        out.append(ExtractedLens(t_p, t_s, ell_p, ell_s, rel_p, rel_s, flags))
    return out


# ---------------------------------------------------------------------------
# Neumann-to-Cauchy conversion on a flat surface
# ---------------------------------------------------------------------------


def neumann_to_cauchy(u, nu, lam, mu, spacing):
    """Recover the normal derivative of u on a flat surface x_n = const.

    u, nu: arrays of shape (m_1, ..., m_{d-1}, d) holding the displacement
    and the traction sigma(u).nu on the surface grid (outward normal along
    +x_d).  lam, mu: scalars or arrays over the surface.  Returns d_n u of
    the same shape.  Tangential derivatives use centered differences
    (second-order one-sided at the edges).

    The tangential components follow from the shear rows of the traction,
    d_n u_a = (nu_a)/mu - d_a u_n, and the normal component from the normal
    row, d_n u_n = (nu_n - lam * div_tan u) / (lam + 2 mu).
    """
    u = np.asarray(u, dtype=float)
    nu = np.asarray(nu, dtype=float)
    d = u.shape[-1]
    if u.ndim != d or nu.shape != u.shape:
        raise PreconditionError(
            f"expected (m_1,...,m_{{d-1}}, d) arrays with matching shapes, "
            f"got u {u.shape}, nu {nu.shape}")
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0.0) or np.any(lam + 2.0 * mu <= 0.0):
        raise PreconditionError("need mu > 0 and lam + 2 mu > 0 on the surface")

    grad_un, div_tan = _tangential_gradients(u, spacing)
    dz = np.empty_like(u)
    dz[..., :-1] = nu[..., :-1] / mu[..., None] - grad_un
    dz[..., -1] = (nu[..., -1] - lam * div_tan) / (lam + 2.0 * mu)
    return dz


def cauchy_to_neumann(u, dz, lam, mu, spacing):
    """Reassemble the traction sigma(u).nu from surface values and d_n u.

    Inverse of neumann_to_cauchy on exact data: nu_a = mu(d_a u_n + d_n u_a)
    for tangential a, nu_n = lam(div_tan u + d_n u_n) + 2 mu d_n u_n.
    """
    u = np.asarray(u, dtype=float)
    dz = np.asarray(dz, dtype=float)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    grad_un, div_tan = _tangential_gradients(u, spacing)
    nu = np.empty_like(u)
    nu[..., :-1] = mu[..., None] * (grad_un + dz[..., :-1])
    nu[..., -1] = lam * (div_tan + dz[..., -1]) + 2.0 * mu * dz[..., -1]
    return nu


def _tangential_gradients(u, spacing):
    """(d_a u_n stacked over the tangential axes a, div_tan u) of surface
    values u: centered differences, second-order one-sided at the edges."""
    n_tan = u.shape[-1] - 1
    h = np.broadcast_to(spacing, (n_tan,))
    grads = [np.gradient(u, h[a], axis=a, edge_order=2) for a in range(n_tan)]
    return (np.stack([g[..., -1] for g in grads], axis=-1),
            sum(g[..., a] for a, g in enumerate(grads)))
