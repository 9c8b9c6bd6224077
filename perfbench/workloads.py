"""Seeded workload generator and output checks.

Each workload writes its model and config files into a fresh directory and
names the ``elastic-lens`` command lines to run there.  Seed 0 reproduces
the acceptance configurations; other seeds vary only inputs that the output
checks still accept:

* ``fd_chain``:   the source polarisation angle (A3 config otherwise),
* ``ray_chain``:  the interior nodes of the c = 2 - r profile (A4 model),
* ``hetero_box``: the transverse component of the material gradient ``b``.

The program sees only the generated files, never the seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

NAMES = ("fd_chain", "ray_chain", "hetero_box")

# acceptance bounds the checks apply (A3 arrival times, A4 profile recovery)
ARRIVAL_REL_ERR_MAX = 0.03
PROFILE_REL_ERR_MAX = 0.01
RECEIVERS = 16
VERDICT_CONVEX = "strictly convex"


def _write(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fd_chain(seed, rng):
    angle = math.radians(60.0 if seed == 0 else rng.uniform(55.0, 65.0))
    model = {
        "format": 1,
        "domain": {"shape": "box", "lo": [0.0, 0.0], "hi": [1.0, 2.4]},
        "material": {"lambda": 1.0, "mu": 1.0, "rho": 1.0},
    }
    config = {
        "mode": "homogeneous",
        "model": "model.json",
        "T": 1.3,
        "h": 0.0025,
        "eta": 0.05,
        "source": {"edge": "left", "center": 1.2, "width": 0.1, "f0": 20.0,
                   "pol": [math.cos(angle), math.sin(angle)]},
        "receivers": {"edge": "right", "count": RECEIVERS,
                      "center": 1.2, "width": 0.48},
    }
    files = {"model.json": model, "config.json": config}
    argv = [["pipeline", "--config", "config.json", "--out", "out"]]
    return files, argv


def _ray_chain(seed, rng):
    # c = 2 - r at seed 0; the interior nodes move by at most 1 %, which
    # keeps r / c strictly increasing (r / c < 0.34 at r = 0.5, > 0.99 at 1)
    # and the ray path lengths, hence the work, nearly fixed
    c_mid, c_one = 1.5, 1.0
    if seed != 0:
        c_mid *= rng.uniform(0.99, 1.01)
        c_one *= rng.uniform(0.995, 1.005)
    model = {
        "format": 1,
        "domain": {"shape": "disk", "radius": 1.0},
        "speed": {"kind": "radial",
                  "profile": [[0.0, 2.0], [0.5, c_mid], [1.0, c_one],
                              [1.2, 0.8]]},
    }
    config = {"mode": "radial", "model": "model.json"}
    files = {"model.json": model, "config.json": config}
    argv = [["pipeline", "--config", "config.json", "--out", "out"]]
    return files, argv


def _hetero_box(seed, rng):
    # b[0] > 0 keeps the x-planes strictly convex; b[1] <= 0 keeps the
    # largest P speed, hence the stable time step and the step count, fixed
    b = [0.5, 0.0 if seed == 0 else rng.uniform(-0.2, 0.0)]
    linear = {"kind": "linear", "a": 1.0, "b": b}
    model = {
        "format": 1,
        "domain": {"shape": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "material": {"lambda": linear, "mu": linear, "rho": 1.0},
    }
    files = {"model.json": model}
    argv = [
        ["validate", "--model", "model.json", "--out", "out/validate.json"],
        ["check-foliation", "--model", "model.json", "--foliation", "planes",
         "--range", "0.01,0.99", "--axis", "0", "--out", "out/foliation.json"],
        ["simulate", "--model", "model.json",
         "--source", "edge=left,center=0.5,width=0.1,f0=20,pol=0.5,0.866",
         "--receivers", f"edge=right,count={RECEIVERS}",
         "--T", "1.0", "--h", "0.005", "--out", "out/traces"],
    ]
    return files, argv


_BUILDERS = {"fd_chain": _fd_chain, "ray_chain": _ray_chain,
             "hetero_box": _hetero_box}


def generate(name, seed, directory):
    """Write the workload's input files into `directory`; return its argv list."""
    files, argv = _BUILDERS[name](seed, random.Random(f"{name}:{seed}"))
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for fname, doc in files.items():
        _write(directory / fname, doc)
    return argv


# ---------------------------------------------------------------------------
# Output checks: each returns (problems, accuracy values)
# ---------------------------------------------------------------------------


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _check_fd_chain(out):
    problems = []
    with open(out / "extracted.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != RECEIVERS:
        problems.append(f"{len(rows)} extracted rows, expected {RECEIVERS}")
    err_p = err_s = math.inf
    try:
        err_p = max(float(r["rel_err_p"]) for r in rows)
        err_s = max(float(r["rel_err_s"]) for r in rows)
    except ValueError:
        problems.append("a receiver lacks a P or S pick")
    flagged = [r["receiver_s"] for r in rows if r["flags"]]
    if flagged:
        problems.append(f"flagged receivers: {flagged}")
    if not err_p < ARRIVAL_REL_ERR_MAX:
        problems.append(f"rel_err_p_max {err_p} not below {ARRIVAL_REL_ERR_MAX}")
    if not err_s < ARRIVAL_REL_ERR_MAX:
        problems.append(f"rel_err_s_max {err_s} not below {ARRIVAL_REL_ERR_MAX}")
    return problems, {"rel_err_p_max": err_p, "rel_err_s_max": err_s}


def _check_ray_chain(out):
    problems = []
    verdict = _read_json(out / "foliation.json")["verdict"]
    if verdict != VERDICT_CONVEX:
        problems.append(f"foliation verdict {verdict!r}")
    err = float(_read_json(out / "report.json")["max_rel_err"])
    if not err < PROFILE_REL_ERR_MAX:
        problems.append(f"profile_rel_err_max {err} not below "
                        f"{PROFILE_REL_ERR_MAX}")
    return problems, {"profile_rel_err_max": err}


def _check_hetero_box(out):
    problems = []
    if _read_json(out / "validate.json")["pass"] is not True:
        problems.append("validate did not pass")
    verdict = _read_json(out / "foliation.json")["verdict"]
    if verdict != VERDICT_CONVEX:
        problems.append(f"foliation verdict {verdict!r}")
    for k in range(RECEIVERS):
        path = out / "traces" / f"receiver_{k:03d}.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        samples = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        if not np.all(np.isfinite(samples)):
            problems.append(f"{path.name} holds non-finite samples")
        elif not np.any(samples != 0.0):
            problems.append(f"{path.name} is all zero")
    return problems, {}


_CHECKS = {"fd_chain": _check_fd_chain, "ray_chain": _check_ray_chain,
           "hetero_box": _check_hetero_box}


def check(name, directory):
    """Check a finished workload directory; return (problems, accuracy)."""
    try:
        return _CHECKS[name](Path(directory) / "out")
    except (OSError, KeyError, ValueError, IndexError) as e:
        return [f"output unreadable: {type(e).__name__}: {e}"], {}
