"""Command-line interface.

Subcommands: validate, check-foliation, trace, lens, simulate, extract,
invert, compare, pipeline.  Exit codes: 0 ok, 2 configuration, 3 model,
4 foliation, 5 simulation, 6 extraction, 7 inversion.

Every command that produces an output directory writes a manifest
(command, resolved configuration, input digests, version, duration, and
the seconds, CPU seconds and counters of each stage).  Data files contain no
timestamps or seeds, so reruns with identical inputs are byte-identical;
wall-clock duration and run health live only in the manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .convexity import VERDICT_FLAT, check_hwz, check_plane_foliation
from .elastic_sim import BoundarySource, check_size, simulate_dn
from .errors import (ConfigurationError, ElasticLensError, ExtractionError,
                     FoliationError, InversionError, ModelError, NumericalError,
                     PreconditionError, ResourceError)
from .inversion import (HERGLOTZ_RANGE, RadialProfile, forward_travel_times,
                        herglotz_invert, invert_both_speeds, layer_strip_invert)
from .model_core import (EDGES, BoxDomain, ConstantField, DepthField,
                         DiskDomain, json_int, load_model)
from .ray_tracer import (DT, T_MAX, RayStatus, entry_at, exit_angle, lens_table,
                         scattering_relation)
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


def _write_json(path, obj):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _emit(doc, out):
    """Write `doc` as JSON to `out` when given, then print it."""
    if out:
        _write_json(out, doc)
    print(json.dumps(doc, indent=2))


def _cell(v):
    return "" if v is None else v if isinstance(v, str) else _FMT % v


def _write_csv(path, header, rows):
    """CSV with one header line; numbers as %.12g, None as an empty cell.
    A float array goes through one format string, which gives csv.writer's bytes."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join([_FMT] * rows.shape[1]) + "\r\n"
            f.write(line * len(rows) % tuple(rows.ravel().tolist()))
        else:
            w.writerows([_cell(v) for v in row] for row in rows)


def _write_manifest(out_dir, command, config, inputs, t_start, stages):
    manifest = {
        "command": command,
        "config": {k: v for k, v in config.items() if not callable(v)},
        "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                   for p in inputs if Path(p).is_file()},
        "version": __version__,
        "duration_seconds": time.monotonic() - t_start,
        "stages": stages,
    }
    _write_json(Path(out_dir) / "manifest.json", manifest)


def _number_pair(text):
    """argparse type for 'a,b': exactly two numbers."""
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers a,b, got {text!r}")
    return a, b


def _read_csv(path, columns, cell=None):
    """Finite numeric rows of a CSV file with one header line and >= `columns`
    columns, each cell read by `cell` when given (which refuses non-finite text)."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, converters=cell)
    except ValueError as e:
        raise ConfigurationError(f"malformed CSV {path}: {e}")
    if cell is None and not np.isfinite(rows).all():
        raise ConfigurationError(f"CSV {path} holds a non-finite number")
    if rows.shape[1] < columns:
        raise ConfigurationError(
            f"CSV {path} has {rows.shape[1]} column(s), expected {columns}")
    return rows


def _merge(default, val, what):
    """The setting `what` whose default is `default`, given as `val`.  A dict
    merges onto its default block key by key and may hold no unknown key; any
    other value must have its default's kind: text, an integer, a number (an
    integer counts, and None where the default is None) or a list of as many
    numbers.  Booleans are never numbers."""
    if isinstance(default, dict):
        if not isinstance(val, dict):
            raise ConfigurationError(f"{what} must be a JSON object")
        if unknown := sorted(set(val) - set(default)):
            raise ConfigurationError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")
        return {k: _merge(d, val.get(k, d), f"{what} {k!r}") for k, d in default.items()}
    if isinstance(default, list):
        if type(val) is list and len(val) == len(default):
            return [_merge(d, v, what) for d, v in zip(default, val)]
    elif (type(val) is type(default) if isinstance(default, (str, int))
          else type(val) in (int, float) or val is None and default is None):
        return val
    raise ConfigurationError(f"{what} must have the kind of its default {default!r}, "
                             f"got {val!r}")


def _spec_value(text):
    """A --source/--receivers value: the JSON number it reads as, else the text."""
    with contextlib.suppress(ValueError, RecursionError):   # RecursionError: deep [[[...
        if type(v := json.loads(text, parse_int=json_int)) in (int, float):
            return v
    return text


def _parse_kv(text, what):
    """The homogeneous mode's block `what` updated by the spec 'key=a,other=b,pol=px,py'
    through _merge; a key followed by bare continuation tokens holds a list."""
    values, last = {}, None
    for token in text.split(","):
        if "=" in token:
            last, token = (part.strip() for part in token.split("=", 1))
            values[last] = []
        elif last is None:
            raise ConfigurationError(f"cannot parse {what} spec near {token!r}")
        values[last].append(_spec_value(token.strip()))
    return _merge(_MODE_DEFAULTS["homogeneous"][what],
                  {k: v if len(v) > 1 else v[0] for k, v in values.items()}, what)


def _source(spec, t0=None):
    """BoundarySource with pulse delay t0 from a source block: edge, center,
    width, f0 and pol."""
    return BoundarySource(edge=spec["edge"], center=float(spec["center"]),
                          width=float(spec["width"]), f0=float(spec["f0"]),
                          polarization=tuple(map(float, spec["pol"])), t0=t0)


def _receiver_points(domain, spec):
    """`count` receivers along one edge of a box: inside the whole edge, or from
    center - width/2 to center + width/2 inclusive.  A count whose traces need
    more than MAX_RUN_BYTES a step is refused before any point exists."""
    edge, count, center, width = (spec[k] for k in ("edge", "count", "center", "width"))
    if (center is None) != (width is None):
        raise ConfigurationError("a receiver center and width must be given together")
    if edge not in EDGES:
        raise ConfigurationError(f"unknown receiver edge {edge!r}")
    if count < 1 or center is not None and not all(map(math.isfinite, (center, width))):
        raise ConfigurationError("receiver count must be >= 1, center and width finite")
    check_size(0, 0, count)
    axis = 1 - EDGES[edge][0]
    c0, c1 = domain.lo[axis], domain.hi[axis]
    if center is None:
        frac = (np.arange(count) + 1.0) / (count + 1.0)
    else:
        c0, c1 = center - 0.5 * width, center + 0.5 * width
        frac = np.linspace(0.0, 1.0, count) if count > 1 else np.array([0.5])
    along = c0 + frac * (c1 - c0)
    return [domain.edge_point(edge, float(a)) for a in along]


def _require_convex(report, accept_flat=False):
    """FoliationError unless the verdict is strictly convex (or, with
    `accept_flat`, flat: constant speeds foliate a box by flat planes)."""
    if not (report.strictly_convex
            or accept_flat and report.verdict == VERDICT_FLAT):
        raise FoliationError(f"foliation check verdict: {report.verdict}")


def _profile_errors(speed, x, c):
    """Relative errors of the profile speeds c at coordinates x against the
    truth: radial profiles index by r, depth profiles by the last coordinate."""
    points = np.zeros((len(x), speed.bounds.dim))
    points[:, -1 if isinstance(speed, DepthField) else 0] = x
    c_true = speed.eval(points)[0]
    errs = np.abs(c - c_true) / c_true
    return {"max_rel_err": float(np.max(errs)), "mean_rel_err": float(np.mean(errs))}


def _write_profile(path, prof):
    """A recovered profile as CSV: radius r (radial) or depth z, then c."""
    axis = "r" if isinstance(prof, RadialProfile) else "z"
    _write_csv(path, [axis, "c"], zip(getattr(prof, axis), prof.c))


def write_lens_csv(path, domain, rows):
    """Lens table rows as CSV: entry_s, entry_angle, exit_s, exit_angle, ell, status."""
    def cells(row):
        rec = row.record
        if rec.status is not RayStatus.EXITED:
            return row.entry_s, row.entry_angle, None, None, None, rec.status.value
        return (row.entry_s, row.entry_angle,
                domain.boundary_param(np.asarray(rec.exit.x)),
                exit_angle(domain, rec), rec.ell, rec.status.value)
    _write_csv(path, ["entry_s", "entry_angle", "exit_s", "exit_angle", "ell",
                      "status"], map(cells, rows))


def read_lens_csv(path):
    """Rows of the lens CSV as dicts: status as text, other fields as floats or None."""
    with open(path, newline="") as fh:
        return [{k: v if k == "status" else float(v) if v else None
                 for k, v in rec.items()} for rec in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args):
    model = load_model(args.model)
    findings = []
    domain = model.domain
    # sample a grid of interior points covering the domain
    if domain is None:
        raise ConfigurationError("model must define a box or disk domain")
    axes = [np.linspace(a, b, 48) for a, b in zip(domain.lo, domain.hi)]
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
    _emit({"model": args.model, "pass": not findings, "findings": findings}, args.out)
    if findings:
        raise ModelError(f"validation failed with {len(findings)} finding(s)")


def cmd_check_foliation(args):
    speed = load_model(args.model).lens_speed()
    a, b = args.range
    if args.foliation == "spheres":
        report = check_hwz(speed, a, b)
    else:
        report = check_plane_foliation(speed, args.axis, a, b)
    _emit(asdict(report), args.out)
    _require_convex(report)


def cmd_trace(args):
    model = load_model(args.model)
    speed = model.lens_speed()
    bd = entry_at(model.domain, args.entry_s, args.angle)
    rec = scattering_relation(speed, model.domain, bd, dt=args.dt,
                              t_max=args.tmax)

    def plain(bd):
        return {"x": list(map(float, bd.x)), "v": list(map(float, bd.v))}
    doc = {"status": rec.status.value, "entry": plain(rec.entry)}
    if rec.status is RayStatus.EXITED:
        doc.update(exit=plain(rec.exit), ell=rec.ell)
    print(json.dumps(doc, indent=2))


def cmd_lens(args):
    model = load_model(args.model)
    speed = model.lens_speed()
    records = lens_table(speed, model.domain, n_points=args.points,
                         angles=args.angles, t_max=args.tmax,
                         dt=args.dt)
    write_lens_csv(args.out, model.domain, records)
    print(f"wrote {len(records)} lens records to {args.out}")


def _simulate_to_dir(model_path, model, source, receiver_spec, T, h, dt, out_dir):
    """Run the FD simulator on a box model with a material and receivers
    placed by `receiver_spec`; write one CSV per trace and metadata.json."""
    if not isinstance(model.domain, BoxDomain):
        raise ConfigurationError("the FD simulator supports box domains only")
    if model.material is None:
        raise ConfigurationError("simulation requires a material in the model")
    receivers = _receiver_points(model.domain, receiver_spec)
    result = simulate_dn(model.material, model.domain, source, receivers,
                         T=T, h=h, dt=dt)
    out, t0, g = Path(out_dir), time.monotonic(), result.grid
    t = np.arange(result.traces.shape[1]) * result.dt
    for k, samples in enumerate(result.traces):
        _write_csv(out / f"receiver_{k:03d}.csv", ["t", "Nu_x", "Nu_y"],
                   np.column_stack((t, samples)))
    result.counters["write_seconds"] = time.monotonic() - t0
    _write_json(out / "metadata.json", {
        "grid": {"nx": g.nx, "ny": g.ny, "h": g.h}, "dt": result.dt, "steps": len(t) - 1,
        "cfl_limit": result.cfl_limit, "source": {**asdict(source), "t0": source.delay},
        "origin": [float(v) for v in g.origin],
        "receivers": [list(map(float, r)) for r in receivers],
        "T": T, "model": str(model_path)})
    return result


def cmd_simulate(args):
    t0 = time.monotonic()
    model = load_model(args.model)
    source = _source(_parse_kv(args.source, "source"))
    stages = []
    with _stage(stages, "simulate") as counters:
        result = _simulate_to_dir(args.model, model, source,
                                  _parse_kv(args.receivers, "receivers"),
                                  args.T, args.h, args.dt, args.out)
        counters.update(result.counters)
    _write_manifest(args.out, "simulate", vars(args), [args.model], t0, stages)
    print(f"wrote {len(result.traces)} traces to {args.out}")


def _read_traces_dir(traces_dir, f0=None):
    """(traces, dt, source) of a directory written by `simulate`: the receiver
    CSVs' tractions as one array (receivers, steps + 1, 2) sampled every dt,
    and the source, with f0 replaced when given (the recorded delay t0 is kept)."""
    d = Path(traces_dir)
    meta_path = d / "metadata.json"
    if not meta_path.is_file():
        raise ConfigurationError(f"no metadata.json in {traces_dir}")
    try:
        meta = json.loads(meta_path.read_text(), parse_int=json_int)
        src = meta["source"]
        source = _source({**src, "pol": src["polarization"],
                          "f0": src["f0"] if f0 is None else f0}, t0=float(src["t0"]))
        g = meta["grid"]
        ox, oy = meta.get("origin", (0.0, 0.0))
        BoxDomain((ox, oy), (ox + (g["nx"] - 1) * g["h"],     # refuses an empty grid
                             oy + (g["ny"] - 1) * g["h"]))
        dt = float(meta["dt"])
        traces = [_read_csv(d / f"receiver_{k:03d}.csv", 3)[:, 1:3]
                  for k in range(len(meta["receivers"]))]
    except (KeyError, TypeError, ValueError, RecursionError, ModelError) as e:
        raise ConfigurationError(f"malformed {meta_path}: {e!r}")
    if len({len(t) for t in traces}) > 1:
        raise ConfigurationError(f"the receiver CSVs in {traces_dir} differ in length")
    return np.array(traces), dt, source


def _finite_or_empty(text):
    """A finite number, or NaN for an empty cell."""
    if not text.strip():
        return math.nan
    if not math.isfinite(value := float(text)):
        raise ValueError(text)          # loadtxt names the cell
    return value


def _read_predictions(path, n):
    """(ell_p, ell_s) of each of the n receivers, from columns 2 and 3: travel
    times >= 0, or an empty cell for no prediction."""
    rows = _read_csv(path, 3, _finite_or_empty)
    if rows.shape[0] != n:
        raise ConfigurationError(
            f"prediction table {path} has {rows.shape[0]} rows, expected {n}")
    if np.any(rows[:, 1:3] < 0.0):
        raise ConfigurationError(f"prediction table {path} holds a negative travel time")
    return [tuple(None if math.isnan(v) else float(v) for v in r[1:3]) for r in rows]


def _write_extracted_csv(path, records):
    _write_csv(path, ["receiver_s", "t_p", "t_s", "ell_p", "ell_s",
                      "rel_err_p", "rel_err_s", "flags"],
               ((k, r.t_p, r.t_s, r.ell_p, r.ell_s, r.rel_err_p, r.rel_err_s,
                 ";".join(r.flags)) for k, r in enumerate(records)))


def cmd_extract(args):
    if not 0.0 < args.eta < 1.0:          # a NaN fails too
        raise ConfigurationError(f"--eta must lie in (0, 1), got {args.eta}")
    traces, dt, source = _read_traces_dir(args.traces, args.f0)
    predictions = _read_predictions(args.lens, len(traces))
    try:
        records = extract_lens(traces, dt, source, predictions, eta=args.eta)
    except ElasticLensError as e:
        raise ExtractionError(f"extraction failed: {e}") from e
    _write_extracted_csv(args.out, records)
    missing = sum(1 for r in records if r.t_p is None and r.t_s is None)
    print(f"extracted {len(records)} records ({missing} without picks) "
          f"to {args.out}")


def cmd_invert(args):
    rows = _read_csv(args.curve, 2)
    if args.mode == "radial":
        prof = herglotz_invert(rows[:, 0], rows[:, 1], args.R)
    else:
        prof = layer_strip_invert(rows[:, 0], rows[:, 1])
    _write_profile(args.out, prof)
    print(f"wrote profile ({len(prof.c)} nodes) to {args.out}")


def cmd_compare(args):
    rows = _read_csv(args.profile, 2)
    speed = load_model(args.truth).lens_speed()
    _emit({"profile": args.profile, "truth": args.truth, "n_points": len(rows),
           **_profile_errors(speed, rows[:, 0], rows[:, 1])}, args.out)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class _Stage(Exception):
    """Wraps a stage failure with the stage name for exit-code mapping."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@contextlib.contextmanager
def _stage(stages, name, *errors):
    """Run the block as stage `name`: re-raise `errors` from it as a failure
    of the stage, and when it succeeds append {name, seconds, cpu_seconds, counters}
    to `stages`, counters being the dict the block receives to fill.  cpu_seconds
    is user plus system time, of the children reaped in the stage (the FD
    simulator's forked lanes) too."""
    counters, t0, cpu0 = {}, time.monotonic(), sum(os.times()[:4])
    try:
        yield counters
    except errors as e:
        raise _Stage(name, e) from e
    stages.append({"name": name, "seconds": time.monotonic() - t0,
                   "cpu_seconds": sum(os.times()[:4]) - cpu0, "counters": counters})


_STAGE_EXIT = {
    "validate": EXIT_MODEL,
    "foliation": EXIT_FOLIATION,
    "simulate": EXIT_SIMULATION,
    "extract": EXIT_EXTRACTION,
    "invert": EXIT_INVERSION,
}

_MODE_DEFAULTS = {     # each mode's settings; every config also names its model and mode
    "homogeneous": {
        "eta": 0.05, "T": 1.25, "h": 0.0025, "dt": None,
        "source": {"edge": "left", "center": 0.5, "width": 0.08, "f0": 12.5,
                   "pol": [0.7071067811865476, 0.7071067811865476]},
        "receivers": {"edge": "right", "count": 16, "center": None, "width": None}},
    "radial": {"radial": {"n_rays": 48}},
}
_RAY_ANGLES = (0.06, 1.51)          # the radial pipeline's fan, radians from the normal
_FOLIATION_RANGE = (0.01, 0.99)     # the planes checked, as fractions of the box's width


def _resolve_config(path):
    """The defaults of the config's mode updated by the JSON object at `path` (see
    _merge), so a key of the other mode is unknown.  The mode is checked first."""
    try:
        user = json.loads(Path(path).read_text(), parse_int=json_int)
    except (ValueError, RecursionError) as e:   # bad or deep JSON, a too large integer
        raise ConfigurationError(f"malformed config JSON {path}: {e}")
    mode = user.get("mode", "homogeneous") if isinstance(user, dict) else "homogeneous"
    if mode not in tuple(_MODE_DEFAULTS):       # by ==: a JSON list is unhashable
        raise ConfigurationError(f"unknown pipeline mode {mode!r}")
    cfg = _merge({"model": "", "mode": mode, **_MODE_DEFAULTS[mode]}, user, "config")
    if not cfg["model"]:
        raise ConfigurationError("pipeline config must name a 'model' file")
    if mode == "radial" and cfg["radial"]["n_rays"] < 2:    # the inversion needs two samples
        raise ConfigurationError(f"radial.n_rays must be >= 2, got {cfg['radial']['n_rays']}")
    return cfg


def _pipeline_homogeneous(cfg, out, model, stages):
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
    lo, hi = domain.lo[0], domain.hi[0]
    c1, c2 = (lo + f * (hi - lo) for f in _FOLIATION_RANGE)
    with _stage(stages, "foliation", FoliationError):
        report = check_plane_foliation(m.cp_field(), 0, c1, c2)
        _write_json(out / "foliation.json", asdict(report))
        _require_convex(report, accept_flat=True)

    source = _source(cfg["source"])
    receivers = _receiver_points(domain, cfg["receivers"])

    # lens stage: straight-chord predictions, exact for constant coefficients
    sp = domain.edge_point(source.edge, source.center)
    cp, cs = m.wave_speeds(sp)
    dists = [math.dist(sp, r) for r in receivers]
    predictions = [(d / cp, d / cs) for d in dists]
    _write_csv(out / "predictions.csv", ["receiver_index", "ell_p", "ell_s"],
               ((k, *p) for k, p in enumerate(predictions)))

    with _stage(stages, "simulate", NumericalError, ResourceError, PreconditionError,
                ConfigurationError, ModelError) as counters:
        result = _simulate_to_dir(cfg["model"], model, source, cfg["receivers"],
                                  cfg["T"], cfg["h"], cfg["dt"], out / "traces")
        counters.update(result.counters)

    with _stage(stages, "extract", ExtractionError, PreconditionError):
        records = extract_lens(result.traces, result.dt, source, predictions,
                               eta=cfg["eta"])
        _write_extracted_csv(out / "extracted.csv", records)
        if any(r.t_p is None or r.t_s is None for r in records):
            raise ExtractionError("missing picks at some receivers")

    with _stage(stages, "invert", InversionError, PreconditionError):
        recovered_cp, recovered_cs = invert_both_speeds(
            (dists, [r.t_p for r in records]), (dists, [r.t_s for r in records]))

    return {
        "mode": "homogeneous",
        "rel_err_p": max(r.rel_err_p for r in records),
        "rel_err_s": max(r.rel_err_s for r in records),
        "recovered_cp": recovered_cp,
        "recovered_cs": recovered_cs,
        "true_cp": cp,
        "true_cs": cs,
        "receivers": len(records),
    }


def _pipeline_radial(cfg, out, model, stages):
    """validate -> foliation (Herglotz) -> forward travel times -> invert ->
    compare on a radial disk model (ray-tracer only; no FD stage)."""
    domain = model.domain
    # the forward travel times trace rays in the plane
    if not isinstance(domain, DiskDomain) or domain.dim != 2:
        raise _Stage("validate", ConfigurationError(
            "radial pipeline requires a 2D disk domain"))
    speed = model.lens_speed()
    R = domain.radius
    with _stage(stages, "foliation", FoliationError):
        report = check_hwz(speed, *(f * R for f in HERGLOTZ_RANGE))
        _write_json(out / "foliation.json", asdict(report))
        _require_convex(report)

    rcfg = cfg["radial"]
    angles = np.linspace(*_RAY_ANGLES, rcfg["n_rays"])
    with _stage(stages, "invert", InversionError, FoliationError) as counters:
        delta, times = forward_travel_times(speed, R, angles, counters=counters)
        _write_csv(out / "curve.csv", ["delta", "time"], zip(delta, times))
        prof = herglotz_invert(delta, times, R)
        _write_profile(out / "profile.csv", prof)
        # Herglotz's condition: p = r / c grows with r, by this smallest step
        counters.update(nodes=len(prof.c), herglotz_margin=float(np.diff(prof.r / prof.c).min()))

    return {
        "mode": "radial",
        "n_rays": rcfg["n_rays"],
        "covered_radii": [float(prof.r[0]), float(prof.r[-1])],
        **_profile_errors(speed, prof.r, prof.c),
    }


def cmd_pipeline(args):
    t0 = time.monotonic()
    cfg = _resolve_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stages = []
    with _stage(stages, "validate", ModelError, OSError):
        model = load_model(cfg["model"])
    run_mode = {"homogeneous": _pipeline_homogeneous, "radial": _pipeline_radial}
    summary = run_mode[cfg["mode"]](cfg, out, model, stages)
    _emit(summary, out / "report.json")
    _write_manifest(out, "pipeline", cfg, [args.config, cfg["model"]], t0, stages)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache          # built once per process, which may call main many times
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
    q.add_argument("--foliation", required=True, choices=("spheres", "planes"))
    q.add_argument("--range", required=True, type=_number_pair,
                   help="a,b leaf-parameter range; write a range that starts "
                        "with '-' as --range=-0.5,0.5")
    q.add_argument("--axis", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_check_foliation)

    q = sub.add_parser("trace", help="trace a single ray")
    q.add_argument("--model", required=True)
    q.add_argument("--entry-s", type=float, required=True,
                   help="boundary arclength of the entry point")
    q.add_argument("--angle", type=float, required=True,
                   help="entry angle from the inward normal (radians)")
    q.add_argument("--dt", type=float, default=DT, help="each ray's largest step (error-controlled)")
    q.add_argument("--tmax", type=float, default=T_MAX)
    q.set_defaults(func=cmd_trace)

    q = sub.add_parser("lens", help="tabulate the lens relation")
    q.add_argument("--model", required=True)
    q.add_argument("--points", type=int, required=True)
    q.add_argument("--angles", type=int, required=True)
    q.add_argument("--tmax", type=float, default=T_MAX)
    q.add_argument("--dt", type=float, default=DT, help="each ray's largest step (error-controlled)")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_lens)

    q = sub.add_parser("simulate", help="run the DN simulator")
    q.add_argument("--model", required=True)
    q.add_argument("--source", required=True,
                   help="edge=left,center=0.5,width=0.08,f0=12.5,pol=px,py: a pipeline "
                        "config's source block, JSON numbers; a key left out keeps its default")
    q.add_argument("--receivers", required=True,
                   help="edge=right,count=16[,center=c,width=w]: the same for the "
                        "receivers block")
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--h", type=float, required=True)
    q.add_argument("--dt", type=float, default=None,
                   help="time step; default 1.3 h / c, with c the speed of the "
                        "step's stability bound (c_p for a constant material).  "
                        "The scheme is stable below sqrt(2) h / c; a dt over "
                        "1.3 h / c exits 2")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("extract", help="pick arrivals and compare to a lens table")
    q.add_argument("--traces", required=True)
    q.add_argument("--lens", required=True,
                   help="CSV: receiver_index, ell_p, ell_s")
    q.add_argument("--f0", type=float, default=None)
    q.add_argument("--eta", type=float, default=_MODE_DEFAULTS["homogeneous"]["eta"])
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


# (error class, exit code, stderr label): the first matching row decides; a
# failed pipeline stage exits with its stage's code
_EXIT_CODES = (
    (_Stage, None, "error"),
    (ConfigurationError, EXIT_CONFIG, "configuration error"),
    (OSError, EXIT_CONFIG, "i/o error"),
    (FoliationError, EXIT_FOLIATION, "foliation error"),
    (ModelError, EXIT_MODEL, "model error"),
    (ExtractionError, EXIT_EXTRACTION, "extraction error"),
    (InversionError, EXIT_INVERSION, "inversion error"),
    ((NumericalError, ResourceError), EXIT_SIMULATION, "error"),
    (ElasticLensError, EXIT_CONFIG, "error"),
)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        args.func(args)
    except (_Stage, ElasticLensError, OSError) as e:
        code, label = next((code, label) for cls, code, label in _EXIT_CODES
                           if isinstance(e, cls))
        print(f"{label}: {e}", file=sys.stderr)
        return _STAGE_EXIT[e.stage] if code is None else code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
