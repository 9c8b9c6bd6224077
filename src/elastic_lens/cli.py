"""Command-line interface.

Subcommands: validate, check-foliation, trace, lens, simulate, extract,
invert, compare, pipeline.  Exit codes: 0 ok, 2 configuration, 3 model,
4 foliation, 5 simulation, 6 extraction, 7 inversion.

Every command that produces an output directory writes a manifest
(command, resolved configuration, input digests, version, duration).
Data files contain no timestamps or seeds, so reruns with identical
inputs are byte-identical; wall-clock duration lives only in the
manifest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .convexity import VERDICT_FLAT, check_hwz, check_plane_foliation
from .elastic_sim import BoundarySource, simulate_dn
from .errors import (ConfigurationError, DataInconsistencyError,
                     DegenerateFoliationError, ElasticLensError, ExtractionError,
                     FoliationError, IllPosedInputError, InversionError,
                     ModelError, NumericalError, PreconditionError, ResourceError,
                     UnsupportedGeometryError)
from .inversion import (TravelTimeCurve, forward_travel_times, herglotz_invert,
                        invert_both_speeds, layer_strip_invert)
from .model_core import (BoxDomain, ConstantField, DepthField, DiskDomain,
                         load_model)
from .ray_tracer import (RayStatus, entry_at, fan_angles, lens_table,
                         scattering_relation, write_lens_csv)
from .wavefield_analysis import extract_lens

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_FOLIATION = 4
EXIT_SIMULATION = 5
EXIT_EXTRACTION = 6
EXIT_INVERSION = 7

_FMT = "%.12g"


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, obj):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_manifest(out_dir, command, config, inputs, t_start):
    if isinstance(config, dict):
        config = {k: v for k, v in config.items()
                  if k != "func" and not callable(v)}
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _digest(p) for p in inputs if Path(p).is_file()},
        "version": __version__,
        "duration_seconds": time.monotonic() - t_start,
    }
    _write_json(Path(out_dir) / "manifest.json", manifest)


def _load_model_checked(path):
    try:
        with open(path) as f:
            spec = json.load(f)
    except FileNotFoundError:
        raise ConfigurationError(f"model file not found: {path}")
    except json.JSONDecodeError as e:
        raise ModelError(f"malformed model JSON at line {e.lineno}, "
                         f"column {e.colno}: {e.msg}")
    return load_model(spec)


def _parse_kv(text, what):
    """Parse 'key=a,other=b,pol=px,py' allowing bare continuation tokens."""
    out = {}
    last = None
    for token in text.split(","):
        if "=" in token:
            key, val = token.split("=", 1)
            out[key.strip()] = val.strip()
            last = key.strip()
        elif last is not None:
            out[last] += "," + token.strip()
        else:
            raise ConfigurationError(f"cannot parse {what} spec near {token!r}")
    return out


def _parse_source(text):
    kv = _parse_kv(text, "source")
    try:
        pol = tuple(float(v) for v in kv["pol"].split(","))
        if len(pol) != 2:
            raise ValueError
        return BoundarySource(edge=kv.get("edge", "left"),
                              center=float(kv["center"]),
                              width=float(kv["width"]),
                              f0=float(kv["f0"]),
                              polarization=pol)
    except (KeyError, ValueError) as e:
        raise ConfigurationError(f"bad source spec {text!r}: needs edge, center, "
                                 f"width, f0, pol=px,py ({e})")


def _receiver_points(domain, spec_text):
    kv = _parse_kv(spec_text, "receivers")
    edge = kv.get("edge", "right")
    count = int(kv.get("count", 8))
    if count < 1:
        raise ConfigurationError("receiver count must be >= 1")
    lo, hi = domain.lo, domain.hi
    if edge in ("left", "right"):
        x = lo[0] if edge == "left" else hi[0]
        c0, c1 = lo[1], hi[1]
    elif edge in ("bottom", "top"):
        y = lo[1] if edge == "bottom" else hi[1]
        c0, c1 = lo[0], hi[0]
    else:
        raise ConfigurationError(f"unknown receiver edge {edge!r}")
    if "center" in kv and "width" in kv:
        mid, w = float(kv["center"]), float(kv["width"])
        c0, c1 = mid - 0.5 * w, mid + 0.5 * w
    frac = (np.arange(count) + 1.0) / (count + 1.0) if "center" not in kv \
        else np.linspace(0.0, 1.0, count) if count > 1 else np.array([0.5])
    along = c0 + frac * (c1 - c0)
    if edge in ("left", "right"):
        return [(x, float(a)) for a in along]
    return [(float(a), y) for a in along]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args):
    model = _load_model_checked(args.model)
    findings = []
    domain = model.domain
    # sample a grid of interior points covering the domain
    if isinstance(domain, BoxDomain):
        lo, hi = domain.lo, domain.hi
    elif isinstance(domain, DiskDomain):
        lo = np.full(domain.dim, -domain.radius)
        hi = np.full(domain.dim, domain.radius)
    else:
        raise ConfigurationError("model must define a box or disk domain")
    axes = [np.linspace(a, b, 48) for a, b in zip(lo, hi)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    points = points[domain.signed(points) <= -1e-9]
    # fields refuse non-positive values, so lambda, mu, rho > 0 (and with
    # them lambda + 2 mu > 0 and c_p > c_s) hold wherever evaluation succeeds
    fields = [] if model.material is None else \
        [model.material.lam, model.material.mu, model.material.rho]
    if model.speed is not None:
        fields.append(model.speed)
    for f in fields:
        try:
            f.eval(points)
        except ModelError as e:
            findings.append(str(e))
    report = {"model": args.model, "pass": not findings, "findings": findings}
    if args.out:
        _write_json(args.out, report)
    print(json.dumps(report, indent=2))
    if findings:
        raise ModelError(f"validation failed with {len(findings)} finding(s)")
    return EXIT_OK


def cmd_check_foliation(args):
    model = _load_model_checked(args.model)
    speed = model.lens_speed()
    a, b = (float(v) for v in args.range.split(","))
    if args.foliation == "spheres":
        report = check_hwz(speed, a, b)
    elif args.foliation == "planes":
        report = check_plane_foliation(speed, args.axis, a, b)
    elif args.foliation.startswith("kappa:"):
        raise ConfigurationError(
            "kappa foliations require the library API (a callable level "
            "function); the CLI supports 'spheres' and 'planes'")
    else:
        raise ConfigurationError(f"unknown foliation {args.foliation!r}")
    doc = report.to_dict()
    if args.out:
        _write_json(args.out, doc)
    print(json.dumps(doc, indent=2))
    if not report.strictly_convex:
        raise FoliationError(f"foliation check verdict: {report.verdict}",
                             report=report, witness=report.witness)
    return EXIT_OK


def cmd_trace(args):
    model = _load_model_checked(args.model)
    speed = model.lens_speed()
    bd = entry_at(model.domain, args.entry_s, args.angle)
    rec = scattering_relation(speed, model.domain, bd, dt=args.dt,
                              t_max=args.tmax)
    doc = {
        "status": rec.status.value,
        "entry": {"x": list(map(float, rec.entry.x)),
                  "v": list(map(float, rec.entry.v))},
    }
    if rec.status is RayStatus.EXITED:
        doc["exit"] = {"x": list(map(float, rec.exit.x)),
                       "v": list(map(float, rec.exit.v))}
        doc["ell"] = rec.ell
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_lens(args):
    model = _load_model_checked(args.model)
    speed = model.lens_speed()
    records = lens_table(speed, model.domain, n_points=args.points,
                         angles=fan_angles(args.angles), t_max=args.tmax,
                         dt=args.dt)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_lens_csv(args.out, model.domain, records)
    print(f"wrote {len(records)} lens records to {args.out}")
    return EXIT_OK


def _simulate_to_dir(model_path, model, source, receivers, T, h, dt, out_dir):
    if not isinstance(model.domain, BoxDomain):
        raise ConfigurationError("the FD simulator supports box domains only")
    if model.material is None:
        raise ConfigurationError("simulation requires a material in the model")
    result = simulate_dn(model.material, model.domain, source, receivers,
                         T=T, h=h, dt=dt)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, trace in enumerate(result.traces):
        with open(out / f"receiver_{k:03d}.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["t", "Nu_x", "Nu_y"])
            for n_, (nx_, ny_) in enumerate(trace.samples):
                w.writerow([_FMT % (n_ * trace.dt), _FMT % nx_, _FMT % ny_])
    meta = dict(result.meta)
    meta["origin"] = [float(v) for v in result.grid.origin]
    meta["receivers"] = [list(map(float, r)) for r in receivers]
    meta["T"] = T
    meta["model"] = str(model_path)
    _write_json(out / "metadata.json", meta)
    return result


def cmd_simulate(args):
    t0 = time.monotonic()
    model = _load_model_checked(args.model)
    source = _parse_source(args.source)
    if not isinstance(model.domain, BoxDomain):
        raise ConfigurationError("the FD simulator supports box domains only")
    receivers = _receiver_points(model.domain, args.receivers)
    _simulate_to_dir(args.model, model, source, receivers,
                     args.T, args.h, args.dt, args.out)
    _write_manifest(args.out, "simulate", vars(args), [args.model], t0)
    print(f"wrote {len(receivers)} traces to {args.out}")
    return EXIT_OK


def _read_traces_dir(traces_dir):
    from .elastic_sim import TractionTrace

    d = Path(traces_dir)
    meta_path = d / "metadata.json"
    if not meta_path.is_file():
        raise ConfigurationError(f"no metadata.json in {traces_dir}")
    with open(meta_path) as f:
        meta = json.load(f)
    traces = []
    for k, rec in enumerate(meta["receivers"]):
        rows = np.loadtxt(d / f"receiver_{k:03d}.csv", delimiter=",", skiprows=1)
        traces.append(TractionTrace(tuple(rec), float(meta["dt"]),
                                    rows[:, 1:3]))
    return meta, traces


def _read_predictions(path, n):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[0] != n:
        raise ConfigurationError(
            f"prediction table {path} has {rows.shape[0]} rows, expected {n}")
    return [(float(r[1]) if np.isfinite(r[1]) else None,
             float(r[2]) if np.isfinite(r[2]) else None) for r in rows]


def _write_extracted_csv(path, records):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["receiver_s", "t_p", "t_s", "ell_p", "ell_s",
                    "rel_err_p", "rel_err_s", "flags"])
        for k, r in enumerate(records):
            def fmt(v):
                return "" if v is None else _FMT % v
            w.writerow([k, fmt(r.t_p), fmt(r.t_s), fmt(r.ell_p), fmt(r.ell_s),
                        fmt(r.rel_err_p), fmt(r.rel_err_s),
                        ";".join(r.flags)])


def cmd_extract(args):
    meta, traces = _read_traces_dir(args.traces)
    src = meta["source"]
    source = BoundarySource(edge=src["edge"], center=src["center"],
                            width=src["width"],
                            f0=args.f0 if args.f0 else src["f0"],
                            polarization=tuple(src["polarization"]))
    predictions = _read_predictions(args.lens, len(traces))
    receivers = [t.receiver for t in traces]
    try:
        records = extract_lens(traces, source, _source_point(meta), receivers,
                               predictions, eta=args.eta)
    except (PreconditionError, ElasticLensError) as e:
        raise ExtractionError(f"extraction failed: {e}") from e
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    _write_extracted_csv(args.out, records)
    missing = sum(1 for r in records if r.t_p is None and r.t_s is None)
    print(f"extracted {len(records)} records ({missing} without picks) "
          f"to {args.out}")
    return EXIT_OK


def _edge_point(lo, hi, edge, center):
    """Point at coordinate `center` along an edge of the box lo..hi."""
    if edge == "left":
        return (lo[0], center)
    if edge == "right":
        return (hi[0], center)
    if edge == "bottom":
        return (center, lo[1])
    return (center, hi[1])


def _source_point(meta):
    """Center of the source patch, from a simulation's metadata."""
    g = meta["grid"]
    ox, oy = meta.get("origin", (0.0, 0.0))
    hi = (ox + (g["nx"] - 1) * g["h"], oy + (g["ny"] - 1) * g["h"])
    return _edge_point((ox, oy), hi, meta["source"]["edge"], meta["source"]["center"])


def cmd_invert(args):
    rows = np.loadtxt(args.curve, delimiter=",", skiprows=1, ndmin=2)
    if args.mode == "radial":
        curve = TravelTimeCurve(rows[:, 0], rows[:, 1], R=args.R)
        prof = herglotz_invert(curve)
        cols, header = (prof.r, prof.c), ["r", "c"]
    elif args.mode == "layered":
        prof = layer_strip_invert(rows[:, 0], rows[:, 1])
        cols, header = (prof.z, prof.c), ["z", "c"]
    else:
        raise ConfigurationError(f"unknown inversion mode {args.mode!r}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for a, b in zip(*cols):
            w.writerow([_FMT % a, _FMT % b])
    print(f"wrote profile ({len(cols[0])} nodes) to {args.out}")
    return EXIT_OK


def cmd_compare(args):
    rows = np.loadtxt(args.profile, delimiter=",", skiprows=1, ndmin=2)
    model = _load_model_checked(args.truth)
    speed = model.lens_speed()
    # radial profiles index by r, depth profiles by the last coordinate
    dim, axis = (speed.dim, -1) if isinstance(speed, DepthField) else (2, 0)
    points = np.zeros((len(rows), dim))
    points[:, axis] = rows[:, 0]
    c_true = speed.eval(points)[0]
    errs = np.abs(rows[:, 1] - c_true) / c_true
    report = {
        "profile": args.profile,
        "truth": args.truth,
        "n_points": len(errs),
        "max_rel_err": float(np.max(errs)),
        "mean_rel_err": float(np.mean(errs)),
    }
    if args.out:
        _write_json(args.out, report)
    print(json.dumps(report, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class _Stage(Exception):
    """Wraps a stage failure with the stage name for exit-code mapping."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


_STAGE_EXIT = {
    "validate": EXIT_MODEL,
    "foliation": EXIT_FOLIATION,
    "lens": EXIT_MODEL,
    "simulate": EXIT_SIMULATION,
    "extract": EXIT_EXTRACTION,
    "invert": EXIT_INVERSION,
    "compare": EXIT_CONFIG,
}

_PIPELINE_DEFAULTS = {
    "mode": "homogeneous",
    "eta": 0.05,
    "T": 1.25,
    "h": 0.0025,
    "dt": None,
    "source": {"edge": "left", "center": 0.5, "width": 0.08, "f0": 12.5,
               "pol": [0.7071067811865476, 0.7071067811865476]},
    "receivers": {"edge": "right", "count": 16, "center": None, "width": None},
    "radial": {"n_rays": 48, "dt": 1e-3, "angle_min": 0.06, "angle_max": 1.51},
    "foliation_range": [0.01, 0.99],
}


def _resolve_config(path):
    try:
        with open(path) as f:
            user = json.load(f)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"malformed config JSON at line {e.lineno}: "
                                 f"{e.msg}")
    cfg = json.loads(json.dumps(_PIPELINE_DEFAULTS))
    for key, val in user.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    if "model" not in cfg:
        raise ConfigurationError("pipeline config must name a 'model' file")
    return cfg


def _pipeline_homogeneous(cfg, out, model):
    """validate -> foliation -> lens predictions -> simulate -> extract ->
    invert -> compare on a constant-coefficient box."""
    domain = model.domain
    if not isinstance(domain, BoxDomain):
        raise _Stage("validate", ConfigurationError(
            "homogeneous pipeline requires a box domain"))
    # the straight-chord predictions below hold for constant coefficients only
    m = model.material
    if m is None or not all(isinstance(f, ConstantField)
                            for f in (m.lam, m.mu, m.rho)):
        raise _Stage("validate", ModelError(
            "homogeneous pipeline requires a material with constant "
            "lambda, mu and rho"))

    # foliation stage: vertical planes foliate the box; check the p-speed
    rng = cfg["foliation_range"]
    lo, hi = domain.lo[0], domain.hi[0]
    a = lo + rng[0] * (hi - lo)
    b = lo + rng[1] * (hi - lo)
    try:
        report = check_plane_foliation(model.material.cp_field(), 0, a, b)
        _write_json(Path(out) / "foliation.json", report.to_dict())
        if not report.strictly_convex and report.verdict != VERDICT_FLAT:
            raise FoliationError(f"verdict: {report.verdict}", report=report)
    except (FoliationError, DegenerateFoliationError) as e:
        raise _Stage("foliation", e)

    scfg = cfg["source"]
    source = BoundarySource(edge=scfg["edge"], center=scfg["center"],
                            width=scfg["width"], f0=scfg["f0"],
                            polarization=tuple(scfg["pol"]))
    rcfg = cfg["receivers"]
    rspec = f"edge={rcfg['edge']},count={rcfg['count']}"
    if rcfg.get("center") is not None and rcfg.get("width") is not None:
        rspec += f",center={rcfg['center']},width={rcfg['width']}"
    receivers = _receiver_points(domain, rspec)

    # lens stage: straight-chord predictions, exact for constant coefficients
    sp = _edge_point(domain.lo, domain.hi, scfg["edge"], scfg["center"])
    cp, cs = model.material.wave_speeds(sp)
    predictions = []
    with open(Path(out) / "predictions.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["receiver_index", "ell_p", "ell_s"])
        for k, r in enumerate(receivers):
            d = math.dist(sp, r)
            predictions.append((d / cp, d / cs))
            w.writerow([k, _FMT % (d / cp), _FMT % (d / cs)])

    try:
        result = _simulate_to_dir(cfg["model"], model, source, receivers,
                                  cfg["T"], cfg["h"], cfg["dt"],
                                  Path(out) / "traces")
    except (NumericalError, ResourceError, PreconditionError,
            ConfigurationError, ModelError) as e:
        raise _Stage("simulate", e)

    try:
        records = extract_lens(result.traces, source, sp, receivers,
                               predictions, eta=cfg["eta"])
        _write_extracted_csv(Path(out) / "extracted.csv", records)
        if any(r.t_p is None or r.t_s is None for r in records):
            raise ExtractionError("missing picks at some receivers")
    except (ExtractionError, PreconditionError) as e:
        raise _Stage("extract", e)

    try:
        dists = [math.dist(sp, r.receiver) for r in records]
        prof_p, prof_s = invert_both_speeds(
            (dists, [r.t_p for r in records]),
            (dists, [r.t_s for r in records]), mode="homogeneous")
    except (InversionError, IllPosedInputError, DataInconsistencyError,
            PreconditionError) as e:
        raise _Stage("invert", e)

    summary = {
        "mode": "homogeneous",
        "rel_err_p": max(r.rel_err_p for r in records),
        "rel_err_s": max(r.rel_err_s for r in records),
        "recovered_cp": prof_p.c[0],
        "recovered_cs": prof_s.c[0],
        "true_cp": cp,
        "true_cs": cs,
        "receivers": len(records),
    }
    _write_json(Path(out) / "report.json", summary)
    return summary


def _pipeline_radial(cfg, out, model):
    """validate -> foliation (Herglotz) -> forward travel times -> invert ->
    compare on a radial disk model (ray-tracer only; no FD stage)."""
    domain = model.domain
    if not isinstance(domain, DiskDomain):
        raise _Stage("validate", ConfigurationError(
            "radial pipeline requires a disk domain"))
    speed = model.lens_speed()
    R = domain.radius
    rng = cfg["foliation_range"]
    try:
        report = check_hwz(speed, rng[0] * R, rng[1] * R)
        _write_json(Path(out) / "foliation.json", report.to_dict())
        if not report.strictly_convex:
            raise FoliationError(f"verdict: {report.verdict}", report=report)
    except (FoliationError, DegenerateFoliationError) as e:
        raise _Stage("foliation", e)

    rcfg = cfg["radial"]
    angles = np.linspace(rcfg["angle_min"], rcfg["angle_max"], rcfg["n_rays"])
    try:
        curve = forward_travel_times(speed, R, angles, dt=rcfg["dt"])
        with open(Path(out) / "curve.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["delta", "time"])
            for d, t in zip(curve.delta, curve.time):
                w.writerow([_FMT % d, _FMT % t])
        prof = herglotz_invert(curve)
        with open(Path(out) / "profile.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["r", "c"])
            for r, c in zip(prof.r, prof.c):
                w.writerow([_FMT % r, _FMT % c])
    except (InversionError, IllPosedInputError, FoliationError) as e:
        raise _Stage("invert", e)

    truth = speed.eval(np.column_stack([prof.r, np.zeros_like(prof.r)]))[0]
    rel = np.abs(prof.c - truth) / truth
    summary = {
        "mode": "radial",
        "n_rays": int(rcfg["n_rays"]),
        "covered_radii": [float(prof.r[0]), float(prof.r[-1])],
        "max_rel_err": float(rel.max()),
        "mean_rel_err": float(rel.mean()),
    }
    _write_json(Path(out) / "report.json", summary)
    return summary


def cmd_pipeline(args):
    t0 = time.monotonic()
    cfg = _resolve_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        model = _load_model_checked(cfg["model"])
    except (ModelError, ConfigurationError) as e:
        raise _Stage("validate", e)
    if cfg["mode"] == "homogeneous":
        summary = _pipeline_homogeneous(cfg, out, model)
    elif cfg["mode"] == "radial":
        summary = _pipeline_radial(cfg, out, model)
    else:
        raise ConfigurationError(f"unknown pipeline mode {cfg['mode']!r}")
    _write_manifest(out, "pipeline", cfg, [args.config, cfg["model"]], t0)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(prog="elastic-lens",
                                description="Elastic-wave lens laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a model file")
    q.add_argument("--model", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("check-foliation", help="strict convexity check")
    q.add_argument("--model", required=True)
    q.add_argument("--foliation", required=True,
                   help="spheres | planes | kappa:file")
    q.add_argument("--range", required=True, help="a,b leaf-parameter range")
    q.add_argument("--axis", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_check_foliation)

    q = sub.add_parser("trace", help="trace a single ray")
    q.add_argument("--model", required=True)
    q.add_argument("--entry-s", type=float, required=True,
                   help="boundary arclength of the entry point")
    q.add_argument("--angle", type=float, required=True,
                   help="entry angle from the inward normal (radians)")
    q.add_argument("--dt", type=float, default=1e-3)
    q.add_argument("--tmax", type=float, default=50.0)
    q.set_defaults(func=cmd_trace)

    q = sub.add_parser("lens", help="tabulate the lens relation")
    q.add_argument("--model", required=True)
    q.add_argument("--points", type=int, required=True)
    q.add_argument("--angles", type=int, required=True)
    q.add_argument("--tmax", type=float, default=50.0)
    q.add_argument("--dt", type=float, default=1e-3)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_lens)

    q = sub.add_parser("simulate", help="run the DN simulator")
    q.add_argument("--model", required=True)
    q.add_argument("--source", required=True,
                   help="edge=left,center=0.5,width=0.1,f0=12.5,pol=px,py")
    q.add_argument("--receivers", required=True, help="edge=right,count=K")
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--h", type=float, required=True)
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("extract", help="pick arrivals and compare to a lens table")
    q.add_argument("--traces", required=True)
    q.add_argument("--lens", required=True,
                   help="CSV: receiver_index, ell_p, ell_s")
    q.add_argument("--f0", type=float, default=None)
    q.add_argument("--eta", type=float, default=0.05)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_extract)

    q = sub.add_parser("invert", help="recover a speed profile")
    q.add_argument("--curve", required=True)
    q.add_argument("--R", type=float, default=1.0)
    q.add_argument("--mode", choices=("radial", "layered"), default="radial")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_invert)

    q = sub.add_parser("compare", help="profile vs truth model")
    q.add_argument("--profile", required=True)
    q.add_argument("--truth", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_compare)

    q = sub.add_parser("pipeline", help="run the full stage chain")
    q.add_argument("--config", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_pipeline)
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except _Stage as e:
        print(f"error: {e}", file=sys.stderr)
        return _STAGE_EXIT.get(e.stage, EXIT_CONFIG)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FoliationError, DegenerateFoliationError) as e:
        print(f"foliation error: {e}", file=sys.stderr)
        return EXIT_FOLIATION
    except ModelError as e:
        print(f"model error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except ExtractionError as e:
        print(f"extraction error: {e}", file=sys.stderr)
        return EXIT_EXTRACTION
    except (InversionError, IllPosedInputError, DataInconsistencyError) as e:
        print(f"inversion error: {e}", file=sys.stderr)
        return EXIT_INVERSION
    except (NumericalError, ResourceError, UnsupportedGeometryError,
            PreconditionError, ElasticLensError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SIMULATION if isinstance(e, (NumericalError, ResourceError)) \
            else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
