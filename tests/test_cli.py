import csv
import functools
import hashlib
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elastic_lens import (cli, convexity, elastic_sim, errors, inversion, model_core,
                          ray_tracer, wavefield_analysis)
from elastic_lens.inversion import DepthProfile, forward_layered_times
from elastic_lens.model_core import load_model
from elastic_lens.ray_tracer import (RayStatus, entry_at, fan_angles,
                                     scattering_relation, scattering_relations)
from tests.conftest import (LINEAR_RADIAL_MODEL, TALL_BOX_MODEL, UNIT_BOX_MODEL,
                            assert_no_child, write_model)

BAD_CONVEXITY_MODEL = {
    "format": 1,
    "domain": {"shape": "disk", "radius": 1.0},
    # c(r) = exp(2r): r/c = r exp(-2r) decreases beyond r = 1/2, so the
    # Herglotz condition fails on the outer leaves
    "speed": {"kind": "radial",
              "profile": [[0.0, 1.0], [0.3, 1.8221], [0.6, 3.3201],
                          [0.9, 6.0496], [1.2, 11.0232]]},
}

NEGATIVE_MU_MODEL = {
    "format": 1,
    "domain": {"shape": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    "material": {"lambda": 1.0, "mu": -1.0, "rho": 1.0},
}

BALL_MODEL = {**LINEAR_RADIAL_MODEL,
              "domain": {"shape": "ball", "radius": 1.0}}

CONSTANT_DISK_MODEL = {
    "format": 1,
    "domain": {"shape": "disk", "radius": 1.0},
    "speed": {"kind": "constant", "c": 1.0},
}


def run(argv):
    return cli.main(list(argv))


def test_bad_arguments_exit_code(tmp_path, capsys):
    assert run(["trace"]) == cli.EXIT_CONFIG       # missing required args
    assert run(["invert", "--curve", str(tmp_path / "nope.csv"),
                "--mode", "radial",
                "--out", str(tmp_path / "p.csv")]) == cli.EXIT_CONFIG


def test_malformed_model_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": 1,')
    assert run(["validate", "--model", str(path)]) == cli.EXIT_MODEL
    path.write_bytes(b'\xff{"format": 1}')       # not UTF-8
    assert run(["validate", "--model", str(path)]) == cli.EXIT_MODEL
    # schema errors: a disk without a radius, a radial speed without a
    # profile, values of the wrong type, a model that is not a JSON object
    for doc in ({"format": 1, "domain": {"shape": "disk"}},
                {"format": 1, "domain": {"shape": "disk", "radius": 1.0},
                 "speed": {"kind": "radial"}},
                {"format": 1, "domain": 5},
                {"format": 1, "domain": {"shape": "disk", "radius": "abc"}},
                [{"format": 1}]):
        path = write_model(tmp_path, doc)
        assert run(["validate", "--model", str(path)]) == cli.EXIT_MODEL


def test_json_nested_too_deep_exits_with_its_documented_code(tmp_path, capsys, small_sim):
    # json gives up on deep nesting with a RecursionError: a model file is a
    # model error (exit 3) and a traces directory's metadata.json a
    # configuration error (exit 2), each with its message and no traceback
    deep = b"[" * 100_000
    model = tmp_path / "deep.json"
    model.write_bytes(deep)
    assert run(["validate", "--model", str(model)]) == cli.EXIT_MODEL
    assert capsys.readouterr().err.startswith("model error: malformed model JSON: ")
    traces = tmp_path / "traces"
    shutil.copytree(small_sim[0], traces)
    (traces / "metadata.json").write_bytes(deep)
    lens = tmp_path / "lens.csv"
    lens.write_text("receiver_index,ell_p,ell_s\n0,0.5,0.9\n1,0.5,0.9\n2,0.5,0.9\n")
    assert run(["extract", "--traces", str(traces), "--lens", str(lens),
                "--out", str(tmp_path / "out.csv")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"configuration error: malformed {traces / 'metadata.json'}: RecursionError(")


def test_validate_negative_mu(tmp_path):
    path = write_model(tmp_path, NEGATIVE_MU_MODEL)
    assert run(["validate", "--model", str(path)]) == cli.EXIT_MODEL


def test_validate_good_model(tmp_path, capsys):
    path = write_model(tmp_path, LINEAR_RADIAL_MODEL)
    assert run(["validate", "--model", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True


def test_validate_ball_model(tmp_path, capsys):
    path = write_model(tmp_path, {"format": 1,
                                  "domain": {"shape": "ball", "radius": 1.0},
                                  "speed": {"kind": "linear", "a": 2.0,
                                            "b": [0.1, 0.2, 0.3]}})
    assert run(["validate", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_validate_affine_field_on_the_domain_box(tmp_path, capsys):
    # lambda = 0.2 + 0.5 x is at least 0.15 on the unit box and its collar
    lam = {"kind": "linear", "a": 0.2, "b": [0.5, 0.0]}
    path = write_model(tmp_path, {**UNIT_BOX_MODEL,
                                  "material": {**UNIT_BOX_MODEL["material"], "lambda": lam}})
    assert run(["validate", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_sphere_check_leaving_the_box_model_exits_2(tmp_path, capsys):
    # the spheres around the origin leave the unit box's field bounds
    path = write_model(tmp_path, UNIT_BOX_MODEL)
    assert run(["check-foliation", "--model", str(path), "--foliation", "spheres",
                "--range", "0.1,0.5"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.search(r"point \[.*\] outside field bounds \(0\.0, 0\.0\)\.\.\(1\.0, 1\.0\)", err)


def test_check_foliation_violation(tmp_path):
    path = write_model(tmp_path, BAD_CONVEXITY_MODEL)
    assert run(["check-foliation", "--model", str(path),
                "--foliation", "spheres",
                "--range", "0.05,0.95"]) == cli.EXIT_FOLIATION


def test_check_foliation_passes(tmp_path, capsys):
    path = write_model(tmp_path, LINEAR_RADIAL_MODEL)
    assert run(["check-foliation", "--model", str(path),
                "--foliation", "spheres",
                "--range", "0.05,0.95"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "strictly convex"
    assert report["margin"] > 0


@pytest.mark.parametrize("doc, flags", [
    (LINEAR_RADIAL_MODEL, ["--foliation", "spheres", "--range", "0.1,0.5,0.9"]),
    (LINEAR_RADIAL_MODEL, ["--foliation", "spheres", "--range", "abc"]),
    (UNIT_BOX_MODEL, ["--foliation", "planes", "--range", "0.1,0.9", "--axis", "2"]),
], ids=["three-numbers", "not-a-number", "axis-out-of-range"])
def test_check_foliation_malformed_flags_exit_2(tmp_path, doc, flags):
    model = write_model(tmp_path, doc)
    assert run(["check-foliation", "--model", model, *flags]) == cli.EXIT_CONFIG


def test_trace_json(tmp_path, capsys):
    path = write_model(tmp_path, CONSTANT_DISK_MODEL)
    assert run(["trace", "--model", str(path), "--entry-s", "0.0",
                "--angle", "0.7", "--dt", "5e-4"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "Exited"
    x_in = np.array(rec["entry"]["x"])
    x_out = np.array(rec["exit"]["x"])
    assert rec["ell"] == pytest.approx(np.linalg.norm(x_out - x_in), abs=1e-5)


def test_ray_exits_within_its_first_step(tmp_path, capsys):
    # the chord 2 cos 1.4 = 0.34 is shorter than one step of 0.5
    model = load_model(CONSTANT_DISK_MODEL)
    rec = scattering_relation(model.speed, model.domain,
                              entry_at(model.domain, 0.3, 1.4), t_max=5.0, dt=0.5)
    assert rec.status is RayStatus.EXITED
    assert rec.ell == pytest.approx(2 * math.cos(1.4), abs=1e-9)
    path = write_model(tmp_path, CONSTANT_DISK_MODEL)
    assert run(["trace", "--model", path, "--entry-s", "0.3", "--angle", "1.4",
                "--dt", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["ell"] == pytest.approx(rec.ell, abs=1e-12)


@pytest.mark.parametrize("dt", ["1e-3", "1e-2"])
def test_grid_model_file_validates_and_gives_the_linear_gradient_travel_times(tmp_path,
                                                                               capsys, dt):
    # c = 1 + 0.3 x + 0.2 y on 8 x 8 nodes spanning the unit box: the bicubic
    # interpolant is the linear field, whose rays take the time
    # arccosh(1 + |b|^2 |x1 - x2|^2 / (2 c1 c2)) / |b|.  Past the grid the
    # field continues by its tangent plane, so the exit step's stages, which
    # reach the collar, still see the linear field
    x = np.linspace(0.0, 1.0, 8)
    path = write_model(tmp_path, {**UNIT_BOX_MODEL, "speed": {
        "kind": "grid", "origin": [0.0, 0.0], "h": 1.0 / 7.0,
        "values": (1.0 + 0.3 * x[:, None] + 0.2 * x[None, :]).tolist()}})
    assert run(["validate", "--model", path]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    out = tmp_path / "lens.csv"
    assert run(["lens", "--model", path, "--points", "4", "--angles", "3", "--dt", dt,
                "--out", str(out)]) == 0
    box, b = load_model(path).domain, np.hypot(0.3, 0.2)
    for row in cli.read_lens_csv(out):
        assert row["status"] == "Exited"
        x1, x2 = (box.boundary_point(row[k]) for k in ("entry_s", "exit_s"))
        c1, c2 = (1.0 + 0.3 * p[0] + 0.2 * p[1] for p in (x1, x2))
        t = math.acosh(1.0 + b * b * math.dist(x1, x2) ** 2 / (2.0 * c1 * c2)) / b
        assert row["ell"] == pytest.approx(t, abs=1e-7)


def test_lens_csv_header(tmp_path):
    path = write_model(tmp_path, LINEAR_RADIAL_MODEL)
    out = tmp_path / "lens.csv"
    assert run(["lens", "--model", str(path), "--points", "4", "--angles", "3",
                "--dt", "1e-3", "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["entry_s", "entry_angle", "exit_s", "exit_angle",
                       "ell", "status"]
    assert len(rows) == 1 + 4 * 3


@pytest.mark.parametrize("angles", ["0", "-2"])
def test_lens_refuses_fewer_than_one_angle(tmp_path, angles):
    path = write_model(tmp_path, LINEAR_RADIAL_MODEL)
    out = tmp_path / "lens.csv"
    assert run(["lens", "--model", path, "--points", "4", f"--angles={angles}",
                "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_invert_rejects_nonmonotone_curve(tmp_path):
    path = tmp_path / "curve.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["delta", "time"])
        for d in np.linspace(0.1, 1.0, 6):
            w.writerow([d, d ** 2])
    assert run(["invert", "--curve", str(path), "--mode", "radial",
                "--R", "1.0",
                "--out", str(tmp_path / "prof.csv")]) == cli.EXIT_INVERSION


def _write_curve(path, X, t):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["offset", "time"])
        w.writerows(zip(X, t))


def test_invert_radial_inverts_a_folded_curve(tmp_path, triplicating_curve):
    # Delta turns back twice along the curve: inverted as a layered fold is,
    # not refused; the disk radius must be finite and positive
    _write_curve(tmp_path / "curve.csv", *triplicating_curve)
    out = tmp_path / "prof.csv"
    argv = ["invert", "--curve", str(tmp_path / "curve.csv"), "--mode", "radial",
            "--out", str(out)]
    assert run(argv) == cli.EXIT_OK
    with open(out) as f:
        assert len(list(csv.reader(f))) == 1 + 46
    for R in ("0", "nan", "-1"):
        assert run([*argv, f"--R={R}"]) == cli.EXIT_CONFIG


def test_invert_layered_writes_depth_profile(tmp_path):
    truth = DepthProfile([0.0, 2.0], [1.0, 2.0])
    X, t = forward_layered_times(truth, 1.0 / np.linspace(1.05, 1.95, 30))
    _write_curve(tmp_path / "curve.csv", X, t)
    out = tmp_path / "prof.csv"
    assert run(["invert", "--curve", str(tmp_path / "curve.csv"),
                "--mode", "layered", "--out", str(out)]) == cli.EXIT_OK
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["z", "c"]
    z, c = np.array(rows[1:], dtype=float).T
    assert len(z) == 31
    assert np.max(np.abs(c - truth(z)) / truth(z)) < 0.02


def test_invert_layered_refuses_low_velocity_zone(tmp_path):
    # secants 1.0, 1.02, 1.08, 1.14 increase with offset
    _write_curve(tmp_path / "curve.csv", [0.5, 1.0, 1.5, 2.0],
                 [0.50, 1.01, 1.55, 2.12])
    assert run(["invert", "--curve", str(tmp_path / "curve.csv"),
                "--mode", "layered",
                "--out", str(tmp_path / "prof.csv")]) == cli.EXIT_INVERSION


def test_extract_missing_traces_dir(tmp_path):
    assert run(["extract", "--traces", str(tmp_path / "absent"),
                "--lens", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path / "out.csv")]) == cli.EXIT_CONFIG


@pytest.fixture(scope="module")
def small_sim(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smallsim")
    model = write_model(tmp, UNIT_BOX_MODEL)
    outdirs = []
    for name in ("run1", "run2"):
        out = tmp / name
        code = run(["simulate", "--model", str(model),
                    "--source", "edge=left,center=0.5,width=0.2,f0=8,"
                                "pol=0.7071067811865476,0.7071067811865476",
                    "--receivers", "edge=right,count=3",
                    "--T", "0.4", "--h", "0.02",
                    "--out", str(out)])
        assert code == 0
        outdirs.append(out)
    return outdirs


@pytest.mark.parametrize("text", ["a,b,c\n0.1,abc,0.3\n", "a\n0.1\n0.2\n0.3\n",
                                  "a,b,c\n0.1,nan,0.3\n", "a,b,c\n0.1,inf,0.3\n"],
                         ids=["non-numeric", "missing-column", "nan", "inf"])
@pytest.mark.parametrize("command", ["invert", "compare", "extract"])
def test_malformed_csv_exits_2(tmp_path, small_sim, command, text):
    csv_path = tmp_path / "table.csv"
    csv_path.write_text(text)
    out = str(tmp_path / "out.csv")
    argv = {"invert": ["invert", "--curve", str(csv_path), "--out", out],
            "compare": ["compare", "--profile", str(csv_path), "--truth",
                        write_model(tmp_path, LINEAR_RADIAL_MODEL)],
            "extract": ["extract", "--traces", str(small_sim[0]),
                        "--lens", str(csv_path), "--out", out]}[command]
    assert run(argv) == cli.EXIT_CONFIG


def _malformed_argv(tmp_path, small_sim, kind, value):
    model = write_model(tmp_path, UNIT_BOX_MODEL)
    out = str(tmp_path / "out")
    if kind in ("source", "receivers"):
        spec = {"source": "edge=left,center=0.5,width=0.2,f0=8,pol=1,0",
                "receivers": "edge=right,count=2", kind: value}
        return ["simulate", "--model", model, "--source", spec["source"],
                "--receivers", spec["receivers"], "--T", "0.2", "--h", "0.05", "--out", out]
    if kind == "metadata":
        traces = tmp_path / "traces"
        shutil.copytree(small_sim[0], traces)
        meta = json.loads((traces / "metadata.json").read_text())
        if isinstance(value, str):
            del meta[value]
        else:
            meta.update(value)
        (traces / "metadata.json").write_text(json.dumps(meta))
        lens = tmp_path / "lens.csv"
        lens.write_text("receiver_index,ell_p,ell_s\n"
                        + "".join(f"{k},0.5,0.9\n" for k in range(3)))
        return ["extract", "--traces", str(traces), "--lens", str(lens),
                "--out", out]
    if kind == "raw-config":
        cfg = value
    elif kind == "radial-config":
        cfg = {"mode": "radial", "model": write_model(tmp_path / "disk.json",
                                                      LINEAR_RADIAL_MODEL), **value}
    else:
        cfg = {"mode": "homogeneous", "model": model, "T": 0.2, "h": 0.05, **value}
    path = tmp_path / "cfg.json"
    path.write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
    return ["pipeline", "--config", str(path), "--out", out]


@pytest.mark.parametrize("kind, value", [
    ("receivers", "edge=right,count=abc"),
    ("receivers", "edge=right,count=4,center=x,width=0.2"),
    ("receivers", "edge=right,count=4,center=0.5"),
    ("receivers", "edge=right,count=4,width=0.5"),
    ("receivers", "edge=top,count=3,center=2.0,width=0.5"),
    ("receivers", "edge=right,count=2,center=nan,width=0.1"),
    ("receivers", "edge=right,count=2,center=0.5,width=inf"),
    ("receivers", "edge=right,cuont=2"),
    ("source", "edg=bottom,center=0.5,width=0.2,f0=8,pol=1,0"),
    ("metadata", "source"),
    ("metadata", "receivers"),
    ("metadata", "dt"),
    ("metadata", "grid"),
    ("raw-config", [{"mode": "radial"}]),
    ("raw-config", b'\xff{"mode": "radial"}'),
    ("config", {"T": "abc"}),
    ("config", {"receivers": {"count": "x"}}),
    ("config", {"source": {"pol": [1]}}),
    ("config", {"foliation_range": [0.5]}),
    ("config", {"foliaton_range": [0.1, 0.9]}),
    ("radial-config", {"radial": {"nrays": 8}}),
    # integers that JSON holds and no float does
    ("config", {"T": 10**400}),
    ("config", {"source": {"center": 10**400}}),
    ("config", {"receivers": {"count": 10**400}}),
    ("radial-config", {"radial": {"n_rays": 10**400}}),
    ("metadata", {"dt": 10**400}),
    # each setting has its default's kind: no float count, no boolean or text number
    ("config", {"receivers": {"count": 3.7}}),
    ("config", {"receivers": {"count": True}}),
    ("config", {"receivers": {"count": "3"}}),
    ("config", {"source": {"f0": True}}),
    ("config", {"source": {"f0": "8"}}),
    ("config", {"source": {"pol": "1,0"}}),
    ("config", {"receivers": {"center": True, "width": 0.1}}),
    ("receivers", "edge=right,count=1" + "0" * 400),
    ("raw-config", b"[" * 100_000),
    # the mode is read first, before the model file
    ("raw-config", {"mode": "spherical", "model": "missing.json"}),
    ("raw-config", {"mode": ["radial"]}),
    # the inversion needs two rays, and the ray step is no setting
    ("raw-config", {"mode": "radial", "model": "missing.json", "radial": {"n_rays": 0}}),
    ("raw-config", {"mode": "radial", "model": "missing.json", "radial": {"n_rays": 1}}),
    ("raw-config", {"mode": "radial", "model": "missing.json", "radial": {"dt": 1e-2}}),
], ids=["count-not-int", "center-not-number", "center-without-width",
        "width-without-center", "receivers-off-the-box", "receivers-center-nan",
        "receivers-width-inf", "receivers-unknown-key", "source-unknown-key",
        "metadata-no-source",
        "metadata-no-receivers", "metadata-no-dt", "metadata-no-grid",
        "config-list", "config-not-utf8", "config-T", "config-receiver-count", "config-pol",
        "config-foliation-range", "config-unknown-key", "config-unknown-block-key",
        "config-T-integer-overflow", "config-source-center-integer-overflow",
        "config-receiver-count-integer-overflow", "config-n-rays-integer-overflow",
        "metadata-dt-integer-overflow", "config-receiver-count-float",
        "config-receiver-count-bool", "config-receiver-count-text", "config-f0-bool",
        "config-f0-text", "config-pol-text", "config-receiver-center-bool",
        "receivers-count-integer-overflow", "config-nested-too-deep",
        "config-unknown-mode-before-model", "config-mode-list",
        "config-n-rays-0-before-model", "config-n-rays-1-before-model", "config-radial-dt"])
def test_malformed_specs_exit_2(tmp_path, small_sim, kind, value):
    argv = _malformed_argv(tmp_path, small_sim, kind, value)
    assert run(argv) == cli.EXIT_CONFIG


_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10**6, 10**6))
_EDGE = st.sampled_from(sorted(model_core.EDGES))
_BLOCKS = {"source": {"edge": _EDGE, "center": _NUMBERS, "width": _NUMBERS, "f0": _NUMBERS,
                      "pol": st.lists(_NUMBERS, min_size=2, max_size=2)},
           "receivers": {"edge": _EDGE, "count": st.integers(1, 10**6), "center": _NUMBERS,
                         "width": _NUMBERS}}


@given(blocks=st.fixed_dictionaries({
    what: st.fixed_dictionaries({}, optional=keys).filter(bool)
    for what, keys in _BLOCKS.items()}))
def test_specs_and_config_blocks_share_one_grammar(blocks):
    # a --source/--receivers spec and the same block in a pipeline config give
    # the same settings, defaults filled in alike
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cfg.json"
        path.write_text(json.dumps({"model": "model.json", **blocks}))
        cfg = cli._resolve_config(path)
    for what, block in blocks.items():
        spec = ",".join(f"{k}={','.join(map(repr, v)) if isinstance(v, list) else v}"
                        for k, v in block.items())
        assert cli._parse_kv(spec, what) == cfg[what]


def test_simulate_outputs_and_manifest(small_sim):
    out = small_sim[0]
    assert (out / "manifest.json").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["grid"]["h"] == pytest.approx(0.02)
    assert len(list(out.glob("receiver_*.csv"))) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert "inputs" in manifest
    [stage] = manifest["stages"]
    assert stage["name"] == "simulate" and stage["seconds"] > 0.0
    assert stage["counters"]["steps"] == meta["steps"]
    loop, write = stage["counters"]["step_loop_seconds"], stage["counters"]["write_seconds"]
    assert 0.0 < loop < stage["seconds"] and 0.0 < write < stage["seconds"] - loop
    # 35 steps: no blow-up check ran yet
    assert stage["counters"]["max_u_over_pol"] is None


def test_simulate_trace_bytes_are_pinned(tmp_path):
    # the first trace's bytes, pinned: a change to the trace arithmetic,
    # the pulse or the CSV formatting shows here
    linear = {"kind": "linear", "a": 1.0, "b": [0.5, -0.1]}
    model = write_model(tmp_path, {**UNIT_BOX_MODEL, "material": {
        "lambda": linear, "mu": linear, "rho": 1.0}})
    assert run(["simulate", "--model", model,
                "--source", "edge=left,center=0.5,width=0.2,f0=8,pol=0.5,0.866",
                "--receivers", "edge=right,count=3,center=0.5,width=0.4",
                "--T", "0.8", "--h", "0.02", "--out", str(tmp_path / "out")]) == 0
    assert hashlib.sha256((tmp_path / "out" / "receiver_000.csv").read_bytes()).hexdigest() \
        == "8b47a6cfdcac6fe83b93bb73fc79be4f76005cb0e7e429f05cae920993a13dd2"


_CSV_SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308,
                 1e-300, -3.3e-300, 1e300, -1.7976931348623157e308, 0.1 + 0.2]


@example(rows=[_CSV_SPECIALS[k:k + 3] for k in range(0, len(_CSV_SPECIALS), 3)])
@example(rows=[])
@given(rows=st.lists(st.lists(st.one_of(st.sampled_from(_CSV_SPECIALS), st.floats()),
                              min_size=3, max_size=3), max_size=12))
def test_array_rows_write_the_bytes_of_the_csv_writer(rows):
    # a float array's rows go through one format string; the list of the same
    # rows goes through csv.writer and _cell, and the bytes must agree
    with tempfile.TemporaryDirectory() as d:
        array, lists = Path(d) / "array.csv", Path(d) / "lists.csv"
        cli._write_csv(array, ["t", "Nu_x", "Nu_y"], np.array(rows).reshape(-1, 3))
        cli._write_csv(lists, ["t", "Nu_x", "Nu_y"], rows)
        assert array.read_bytes() == lists.read_bytes()


@pytest.mark.parametrize("flags, receivers", [
    (["--T", "1e9", "--h", "0.05"], "edge=right,count=16"),
    (["--T", "1", "--h", "1e-5"], "edge=right,count=16"),
    (["--T", "1", "--h", "1e-320"], "edge=right,count=16"),
    (["--T", "1", "--h", "0.05"], "edge=right,count=1000000000000"),
], ids=["traces", "grid", "grid-overflows", "receivers"])
def test_oversized_simulate_exits_5_before_allocating(tmp_path, capsys, flags, receivers):
    # 1.9 TiB of traces, a 75 GiB grid, a node count past any float, 87 TiB
    # for one step of 10^12 receivers: each is refused against
    # elastic_sim.MAX_RUN_BYTES before its arrays (or receiver points) exist
    model = write_model(tmp_path, UNIT_BOX_MODEL)
    tracemalloc.start()
    try:
        code = run(["simulate", "--model", model, "--source",
                    "edge=left,center=0.5,width=0.2,f0=8,pol=1,0",
                    "--receivers", receivers, *flags,
                    "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_SIMULATION and peak < 16 << 20
    assert "GiB, over the cap of 4 GiB" in capsys.readouterr().err


def test_oversized_pipeline_fails_the_simulate_stage(tmp_path, capsys):
    model = write_model(tmp_path, UNIT_BOX_MODEL)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "homogeneous", "model": str(model), "h": 1e-5,
                               "source": {"center": 0.5}, "receivers": {"count": 4}}))
    tracemalloc.start()
    try:
        code = run(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_SIMULATION and peak < 16 << 20
    assert "stage 'simulate' failed" in capsys.readouterr().err


def test_simulate_reruns_byte_identical(small_sim):
    a, b = small_sim
    for f in sorted(a.glob("receiver_*.csv")):
        assert f.read_bytes() == (b / f.name).read_bytes()
    assert ((a / "metadata.json").read_bytes()
            == (b / "metadata.json").read_bytes())


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("safety, T", [(5.0, "40"), (2.0, "20")],
                         ids=["cfl5-T40", "cfl2-T20"])
def test_simulate_blow_up_exits_5(tmp_path, monkeypatch, safety, T):
    # five (two) times h / c_p, past the limit sqrt(2) times it: the
    # leapfrog scheme grows without bound, and the run must stop
    # with a simulation error; at two times u stays finite up to T = 20
    # (near 1e257), so only its amplitude shows the blow-up
    monkeypatch.setattr(elastic_sim, "CFL_SAFETY", safety)
    model = write_model(tmp_path, UNIT_BOX_MODEL)
    assert run(["simulate", "--model", str(model),
                "--source", "edge=left,center=0.5,width=0.2,f0=8,pol=1,0",
                "--receivers", "edge=right,count=3",
                "--T", T, "--h", "0.05",
                "--out", str(tmp_path / "out")]) == cli.EXIT_SIMULATION


def _simulate_on_two_strips(tmp_path, monkeypatch, T, h="0.05"):
    monkeypatch.setattr(elastic_sim, "_MIN_NODES_PER_STRIP", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return run(["simulate", "--model", write_model(tmp_path, UNIT_BOX_MODEL),
                "--source", "edge=left,center=0.5,width=0.2,f0=8,pol=1,0",
                "--receivers", "edge=right,count=3", "--T", T, "--h", h,
                "--out", str(tmp_path / "out")])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_simulate_blow_up_on_two_strips_exits_5_and_leaves_no_child_process(tmp_path,
                                                                           monkeypatch):
    monkeypatch.setattr(elastic_sim, "CFL_SAFETY", 5.0)
    assert _simulate_on_two_strips(tmp_path, monkeypatch, "40") == cli.EXIT_SIMULATION
    assert_no_child()


def test_two_strips_call_the_package_from_the_main_thread_only(tmp_path, monkeypatch):
    # perfbench's tracer keeps one span stack for all public functions: a
    # call from another thread would nest its span in the wrong parent, and
    # one from a forked lane would go uncounted.  Each call appends its name,
    # process and thread to a file, which the lanes' writes reach too
    log, caller = tmp_path / "calls.log", os.getpid()

    def recorded(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            main = threading.current_thread() is threading.main_thread()
            with open(log, "a") as f:
                f.write(f"{fn.__name__} {os.getpid() == caller and main}\n")
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, convexity, elastic_sim, errors, inversion, model_core,
                   ray_tracer, wavefield_analysis):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and not name.startswith("_") \
                    and obj.__module__.startswith("elastic_lens."):
                monkeypatch.setattr(module, name, recorded(obj))
    assert _simulate_on_two_strips(tmp_path, monkeypatch, "0.3") == cli.EXIT_OK
    calls = log.read_text().split()
    assert "simulate_dn" in calls[::2] and set(calls[1::2]) == {"True"}
    counters = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"][0][
        "counters"]
    assert counters["processes"] == 2 and 0.0 <= counters["lane_wait_seconds"]
    metadata = (tmp_path / "out" / "metadata.json").read_text()
    assert "processes" not in metadata and "lane_wait" not in metadata
    assert_no_child()


def test_simulate_stage_cpu_seconds_count_the_forked_lane(tmp_path, monkeypatch):
    # the lane is forked and reaped inside the stage, so the CPU time of the
    # children this process reaped during the run (about 0.05 s on 101 x 101
    # nodes and 266 steps) is all in the stage's cpu_seconds
    before = os.times()
    assert _simulate_on_two_strips(tmp_path, monkeypatch, "2", h="0.01") == cli.EXIT_OK
    after = os.times()
    lane = after.children_user + after.children_system - before.children_user \
        - before.children_system
    stage, = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert stage["counters"]["processes"] == 2
    assert 0.0 < lane <= stage["cpu_seconds"] + 1e-9     # os.times() sums, rounded
    assert_no_child()


@pytest.mark.parametrize("doc", [LINEAR_RADIAL_MODEL, {
    "format": 1, "domain": UNIT_BOX_MODEL["domain"], "speed": {"kind": "constant", "c": 1.0}}],
    ids=["disk", "no-material"])
def test_simulate_needs_a_box_and_a_material(tmp_path, capsys, doc):
    assert run(["simulate", "--model", write_model(tmp_path, doc),
                "--source", "edge=left,center=0.5,width=0.2,f0=8,pol=1,0",
                "--receivers", "edge=right,count=3", "--T", "0.2", "--h", "0.05",
                "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_simulate_refused_dt_reads_apart_from_its_bound(tmp_path, capsys):
    # the bound is 1.3 h / c_p = 1.3 0.05 / sqrt(3) = 0.0375277..., just below 0.03753
    model = write_model(tmp_path, UNIT_BOX_MODEL)
    assert run(["simulate", "--model", str(model),
                "--source", "edge=left,center=0.5,width=0.2,f0=8,pol=1,0",
                "--receivers", "edge=right,count=3", "--T", "0.2", "--h", "0.05",
                "--dt", "0.03753", "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    dt, bound = re.search(r"dt = (\S+) violates CFL: .* = (\S+)$",
                          capsys.readouterr().err.strip()).groups()
    assert float(dt) == 0.03753 and float(bound) == 1.3 * 0.05 / math.sqrt(3.0)
    assert dt != bound


def _run_settings_argv(tmp_path, command, flags):
    """argv of a small valid `command` run with `flags` replacing its own."""
    if command == "pipeline":
        return _malformed_argv(tmp_path, None, "config", flags)
    model = write_model(tmp_path, UNIT_BOX_MODEL if command == "simulate"
                        else CONSTANT_DISK_MODEL)
    out = str(tmp_path / "out")
    argv, own = {
        "simulate": (["--source", "edge=left,center=0.5,width=0.2,f0=8,pol=1,0",
                      "--receivers", "edge=right,count=3", "--out", out],
                     {"--T": "0.2", "--h": "0.05"}),
        "trace": ([], {"--entry-s": "0.3", "--angle": "0.2"}),
        "lens": (["--points", "2", "--angles", "2", "--out", out], {}),
    }[command]
    return [command, "--model", model, *argv,
            *(v for kv in {**own, **flags}.items() for v in kv)]


@pytest.mark.parametrize("command, flags, code", [
    ("simulate", {"--h": "0"}, cli.EXIT_CONFIG),
    ("simulate", {"--h": "nan"}, cli.EXIT_CONFIG),
    ("simulate", {"--h": "-0.05"}, cli.EXIT_CONFIG),
    ("simulate", {"--T": "-1"}, cli.EXIT_CONFIG),
    ("simulate", {"--T": "inf"}, cli.EXIT_CONFIG),
    ("simulate", {"--dt": "0"}, cli.EXIT_CONFIG),
    ("simulate", {"--dt": "-0.01"}, cli.EXIT_CONFIG),
    ("pipeline", {"h": 0}, cli.EXIT_SIMULATION),
    ("pipeline", {"T": -1}, cli.EXIT_SIMULATION),
    ("pipeline", {"dt": 0}, cli.EXIT_SIMULATION),
    ("trace", {"--dt": "nan"}, cli.EXIT_CONFIG),
    ("trace", {"--tmax": "inf"}, cli.EXIT_CONFIG),
    ("trace", {"--entry-s": "nan"}, cli.EXIT_CONFIG),
    ("trace", {"--angle": "nan"}, cli.EXIT_CONFIG),
    ("lens", {"--dt": "nan"}, cli.EXIT_CONFIG),
], ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else None)
def test_nonpositive_or_nonfinite_run_settings_exit_with_their_code(
        tmp_path, capsys, command, flags, code):
    # times, spacings and steps must be finite and positive, and entries
    # finite: a labelled refusal, no traceback and no NaN in the JSON output
    assert run(_run_settings_argv(tmp_path, command, flags)) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(("configuration error: ", "error: "))


def _fresh_python(code, *args):
    """The last line `code` prints, run in a new interpreter on this source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip().splitlines()[-1]


LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_loads_no_scipy():
    # nor mmap, which an FD run loads for its shared arrays
    assert _fresh_python(f"import sys, elastic_lens.cli; print({LOADED_SCIPY}, "
                         "'mmap' in sys.modules)") == "[] False"


def test_cli_import_loads_no_numpy_random():
    # numpy loads numpy.random on first use only; the package never uses it
    assert _fresh_python("import sys, elastic_lens.cli; "
                         "print('numpy.random' in sys.modules)") == "False"


def test_radial_and_homogeneous_pipelines_load_no_scipy(tmp_path):
    radial = tmp_path / "radial.json"
    radial.write_text(json.dumps({
        "mode": "radial", "model": write_model(tmp_path, LINEAR_RADIAL_MODEL),
        "radial": {"n_rays": 16}}))
    homogeneous = tmp_path / "homogeneous.json"
    homogeneous.write_text(json.dumps({
        "mode": "homogeneous", "model": write_model(tmp_path / "box.json", TALL_BOX_MODEL),
        "T": 1.3, "h": 0.02,
        "source": {"edge": "left", "center": 1.2, "width": 0.1, "f0": 10.0,
                   "pol": [0.5, 0.8660254037844386]},
        "receivers": {"edge": "right", "count": 4, "center": 1.2, "width": 0.48}}))
    code = ("import sys, elastic_lens.cli as cli\n"
            "codes = [cli.main(['pipeline', '--config', c, '--out', c + '.out'])"
            " for c in sys.argv[1:]]\n"
            f"print(codes, {LOADED_SCIPY})")
    assert _fresh_python(code, str(radial), str(homogeneous)) == "[0, 0] []"


def test_radial_pipeline(tmp_path, capsys):
    model = write_model(tmp_path, LINEAR_RADIAL_MODEL)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "radial",
        "model": str(model),
        "radial": {"n_rays": 16},
    }))
    out = tmp_path / "run"
    assert run(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["max_rel_err"] < 0.01
    assert (out / "curve.csv").exists()
    profile = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["config"]) == ["mode", "model", "radial"]
    counters = manifest["stages"][-1]["counters"]
    # one node a ray, and Herglotz's condition: r / c grows along the profile.
    # profile.csv holds 12 significant digits, so each r / c it gives (<= 1 here)
    # is off by up to 1e-11, and a difference of two by up to 2e-11
    assert counters["nodes"] == len(profile) == 16
    assert counters["herglotz_margin"] == pytest.approx(
        np.diff(profile[:, 0] / profile[:, 1]).min(), rel=0, abs=2e-11)
    assert counters["herglotz_margin"] > 0.0


# c = 2 - r with a bump of 0.03 over 0.006 at r = 0.566: d/dr (r / c) falls to
# -0.74 near r = 0.562, between the sphere check's evenly spaced leaves
THIN_LOW_VELOCITY_ZONE_MODEL = {
    "format": 1,
    "domain": {"shape": "disk", "radius": 1.0},
    "speed": {"kind": "radial",
              "profile": [[0.0, 2.0], [0.5, 1.5], [0.56, 1.44], [0.566, 1.47],
                          [0.59, 1.44], [1.0, 1.0], [1.2, 0.8]]},
}


def test_thin_low_velocity_zone_exits_4_from_pipeline_and_sphere_check(tmp_path):
    model = write_model(tmp_path, THIN_LOW_VELOCITY_ZONE_MODEL)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "radial", "model": str(model)}))
    assert run(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) \
        == cli.EXIT_FOLIATION
    assert not (tmp_path / "run" / "curve.csv").exists()
    assert run(["check-foliation", "--model", str(model), "--foliation", "spheres",
                "--range", "0.01,0.99", "--out", str(tmp_path / "fol.json")]) == cli.EXIT_FOLIATION
    report = json.loads((tmp_path / "fol.json").read_text())
    assert report["verdict"] == "violated"
    assert 0.5 < report["witness"]["leaf"] < 0.566


class _ReadKeys(dict):
    """A config block that records in `read` the path of each key read by [],
    in nested blocks too."""

    def __init__(self, block, read, prefix=""):
        super().__init__({k: _ReadKeys(v, read, f"{prefix}{k}.") if isinstance(v, dict)
                          else v for k, v in block.items()})
        self.read, self.prefix = read, prefix

    def __getitem__(self, key):
        self.read.add(self.prefix + key)
        return super().__getitem__(key)

    def paths(self):
        return {p for k, v in self.items()
                for p in [self.prefix + k, *(v.paths() if isinstance(v, dict) else ())]}


@pytest.mark.parametrize("mode", ["homogeneous", "radial"])
def test_a_pipeline_reads_every_setting_it_resolves(tmp_path, monkeypatch, mode):
    # a setting the run never reads is a knob that does nothing
    cfg = {"homogeneous": {"model": write_model(tmp_path / "box.json", UNIT_BOX_MODEL),
                           "T": 0.2, "h": 0.05},
           "radial": {"model": write_model(tmp_path / "disk.json", LINEAR_RADIAL_MODEL),
                      "radial": {"n_rays": 16}}}[mode]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": mode, **cfg}))
    read, resolved, resolve = set(), [], cli._resolve_config
    monkeypatch.setattr(cli, "_resolve_config",
                        lambda p: resolved.append(_ReadKeys(resolve(p), read)) or resolved[-1])
    code = run(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")])
    # T = 0.2 is too short for any pick: the run stops in extract, the last stage to read one
    assert code == {"homogeneous": cli.EXIT_EXTRACTION, "radial": 0}[mode]
    [config] = resolved
    assert read == config.paths()


@pytest.mark.parametrize("mode, key, value", [("radial", "h", 0.5),
                                              ("radial", "source", {"f0": 3.0}),
                                              ("homogeneous", "radial", {"n_rays": 16})])
def test_a_setting_of_the_other_mode_exits_2_and_is_named(tmp_path, capsys, mode, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": mode, "model": "missing.json", key: value}))
    assert run(["pipeline", "--config", str(path), "--out", str(tmp_path / "out")]) == \
        cli.EXIT_CONFIG
    assert f"unknown config key(s): {key!r}" in capsys.readouterr().err


def test_compare_depth_profile_uses_last_coordinate(tmp_path, capsys):
    model = write_model(tmp_path, {
        "format": 1,
        "domain": {"shape": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "speed": {"kind": "depth",
                  "profile": [[0.0, 1.0], [0.5, 1.5], [1.0, 2.0]]},
    })
    prof = tmp_path / "profile.csv"
    prof.write_text("z,c\n0.1,1.1\n0.5,1.5\n0.9,1.9\n")
    assert run(["compare", "--profile", str(prof),
                "--truth", str(model)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_rel_err"] < 1e-12


def test_compare_ball_truth_evaluates_in_3d(tmp_path, capsys):
    model = write_model(tmp_path, BALL_MODEL)
    prof = tmp_path / "profile.csv"
    prof.write_text("r,c\n0.1,1.9\n0.5,1.5\n0.9,1.1\n")
    assert run(["compare", "--profile", str(prof), "--truth", model]) == 0
    assert json.loads(capsys.readouterr().out)["max_rel_err"] < 1e-12


def test_radial_pipeline_refuses_ball(tmp_path):
    # forward travel times trace rays in a 2D disk only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "radial",
                               "model": write_model(tmp_path, BALL_MODEL)}))
    out = tmp_path / "run"
    assert run(["pipeline", "--config", str(cfg),
                "--out", str(out)]) == cli.EXIT_MODEL
    assert not (out / "foliation.json").exists()


def test_homogeneous_pipeline_refuses_heterogeneous_material(tmp_path):
    model = write_model(tmp_path, {
        "format": 1,
        "domain": {"shape": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "material": {"lambda": {"kind": "linear", "a": 1.0, "b": [0.5, 0.0]},
                     "mu": 1.0, "rho": 1.0},
    })
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "homogeneous", "model": str(model),
                               "T": 0.3, "h": 0.02}))
    out = tmp_path / "run"
    assert run(["pipeline", "--config", str(cfg),
                "--out", str(out)]) == cli.EXIT_MODEL
    assert not (out / "traces").exists()


def test_homogeneous_pipeline_manifest_records_stages(tmp_path):
    model = write_model(tmp_path, TALL_BOX_MODEL)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "homogeneous", "model": str(model), "T": 1.3, "h": 0.02,
        "source": {"edge": "left", "center": 1.2, "width": 0.1, "f0": 10.0,
                   "pol": [0.5, 0.8660254037844386]},
        "receivers": {"edge": "right", "count": 4, "center": 1.2, "width": 0.48}}))
    out = tmp_path / "run"
    assert run(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert [s["name"] for s in stages] == ["validate", "foliation", "simulate",
                                           "extract", "invert"]
    assert all(s["seconds"] >= 0.0 for s in stages)
    counters = stages[2]["counters"]
    meta = json.loads((out / "traces" / "metadata.json").read_text())
    assert counters["steps"] == meta["steps"] == 87
    assert counters["dt"] == meta["dt"]
    assert counters["cell_steps"] == meta["grid"]["nx"] * meta["grid"]["ny"] * 87
    # a left source drives row 0 and the receivers sit on row 50: step n runs
    # on rows [0, 2 n + 3) of the 51, cut to [50 - 2 (87 - n), 51)
    assert counters["window_cell_steps"] == sum(
        min(51, 2 * n + 3) - max(0, 50 - 2 * (87 - n)) for n in range(87)) * 121
    # the default step, 1.3 h / c_p, against the limit sqrt(2) h / c_p
    assert counters["dt_over_limit"] == pytest.approx(1.3 / math.sqrt(2.0), rel=1e-12)
    # metadata.json records that limit, the one dt_over_limit divides by
    assert meta["dt"] / meta["cfl_limit"] == counters["dt_over_limit"]
    # the amplitude at step 64, the only blow-up check of the run
    assert 0.0 < counters["max_u_over_pol"] < 1.3
    # run health stays out of the data files
    assert not {"dt_over_limit", "max_u_over_pol", "cell_steps", "window_cell_steps"} & set(meta)


@pytest.mark.parametrize("doc, code, err", [
    (CONSTANT_DISK_MODEL, cli.EXIT_MODEL,
     "error: stage 'validate' failed: homogeneous pipeline requires a box domain\n"),
    # T = 0.2 ends the traces before the P arrival, 1 / sqrt(3) away
    (UNIT_BOX_MODEL, cli.EXIT_EXTRACTION,
     "error: stage 'extract' failed: missing picks at some receivers\n"),
], ids=["disk", "missing-picks"])
def test_homogeneous_pipeline_refusals_exit_with_their_stage_code(tmp_path, capsys, doc,
                                                                  code, err):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "homogeneous", "model": write_model(tmp_path, doc),
                               "T": 0.2, "h": 0.05}))
    assert run(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == code
    assert capsys.readouterr().err == err


def test_extract_exits_6_on_a_pulse_too_narrow_for_its_samples(tmp_path, capsys, small_sim):
    # at f0 = 1e6 the source pulse is zero on every sample: no reference onset
    lens = tmp_path / "lens.csv"
    lens.write_text("receiver_index,ell_p,ell_s\n"
                    + "".join(f"{k},0.5,0.9\n" for k in range(3)))
    assert run(["extract", "--traces", str(small_sim[0]), "--lens", str(lens),
                "--f0", "1e6", "--out", str(tmp_path / "out.csv")]) == cli.EXIT_EXTRACTION
    assert capsys.readouterr().err == ("extraction error: extraction failed: source pulse "
                                       "produced no reference onset\n")


def test_pipeline_missing_model_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "radial"}))
    assert run(["pipeline", "--config", str(cfg),
                "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG


def test_lens_on_3d_box_exits_3(tmp_path):
    # the boundary walk of a lens table is defined for 2D domains only
    model = write_model(tmp_path, {
        "format": 1, "speed": 1.0,
        "domain": {"shape": "box", "lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}})
    assert run(["lens", "--model", model, "--points", "2", "--angles", "2",
                "--out", str(tmp_path / "lens.csv")]) == cli.EXIT_MODEL


def test_lens_on_box_refuses_corner_entries(tmp_path):
    # the table walks the unit box at the midpoints of its sides, so every
    # ray of every fan is traced and exits
    model = write_model(tmp_path, {**UNIT_BOX_MODEL, "speed": 1.0})
    out = tmp_path / "lens.csv"
    assert run(["lens", "--model", model, "--points", "4", "--angles", "4",
                "--out", str(out)]) == 0
    rows = cli.read_lens_csv(out)
    assert [r["entry_s"] for r in rows[::4]] == [0.5, 1.5, 2.5, 3.5]
    assert [r["status"] for r in rows] == ["Exited"] * 16
    # at a corner a direction inward from one side may point out through
    # the other side: those entries are refused
    box = load_model(model)
    records = scattering_relations(box.speed, box.domain,
                                   [entry_at(box.domain, 0.0, a) for a in fan_angles(4)],
                                   t_max=50.0, dt=1e-3)
    status = [r.status for r in records]
    assert status.count(RayStatus.EXITED) == 2
    assert status.count(RayStatus.TANGENT_ENTRY) == 2


def test_extract_f0_override_keeps_recorded_t0(tmp_path):
    model = write_model(tmp_path, UNIT_BOX_MODEL)
    out = tmp_path / "traces"
    assert run(["simulate", "--model", model,
                "--source", "edge=left,center=0.5,width=0.2,f0=20,pol=1,0",
                "--receivers", "edge=right,count=2", "--T", "0.2", "--h", "0.05",
                "--out", str(out)]) == 0
    t0 = json.loads((out / "metadata.json").read_text())["source"]["t0"]
    _, _, source = cli._read_traces_dir(out, f0=30.0)
    assert source.f0 == 30.0
    assert source.delay == t0 == 1.5 / 20.0


def test_extract_metadata_with_empty_grid_exits_2(tmp_path, small_sim):
    traces = tmp_path / "traces"
    shutil.copytree(small_sim[0], traces)
    meta = json.loads((traces / "metadata.json").read_text())
    meta["grid"]["nx"] = 1
    (traces / "metadata.json").write_text(json.dumps(meta))
    lens = tmp_path / "lens.csv"
    lens.write_text("receiver_index,ell_p,ell_s\n"
                    + "".join(f"{k},0.5,0.9\n" for k in range(3)))
    assert run(["extract", "--traces", str(traces), "--lens", str(lens),
                "--out", str(tmp_path / "out.csv")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, value", [
    ("simulate", "f0=nan"), ("simulate", "f0=inf"), ("simulate", "center=nan"),
    ("simulate", "width=inf"), ("simulate", "pol=nan,0"),
    ("extract", "nan"), ("extract", "inf"), ("extract", "0"),
    ("pipeline", math.nan),
])
def test_nonfinite_or_zero_source_settings_exit_2(tmp_path, capsys, small_sim, command,
                                                  value):
    # a NaN or infinite source setting would reach metadata.json, which is
    # then not JSON, or the picker as a traceback; an f0 of 0 is refused,
    # not replaced by the recorded one
    out = str(tmp_path / "out")
    if command == "simulate":
        spec = {"edge": "left", "center": "0.5", "width": "0.2", "f0": "8", "pol": "1,0"}
        spec.update([value.split("=")])
        argv = ["simulate", "--model", write_model(tmp_path, UNIT_BOX_MODEL),
                "--source", ",".join(f"{k}={v}" for k, v in spec.items()),
                "--receivers", "edge=right,count=2", "--T", "0.2", "--h", "0.05",
                "--out", out]
    elif command == "extract":
        lens = tmp_path / "lens.csv"
        lens.write_text("receiver_index,ell_p,ell_s\n"
                        + "".join(f"{k},0.5,0.9\n" for k in range(3)))
        argv = ["extract", "--traces", str(small_sim[0]), "--lens", str(lens),
                "--f0", value, "--out", out]
    else:
        argv = _malformed_argv(tmp_path, small_sim, "config", {"source": {"f0": value}})
    assert run(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out" / "metadata.json").exists()


def _extract_argv(tmp_path, small_sim, row1="1,0.5,0.9", eta="0.05"):
    """argv of `extract` on small_sim's 3 receivers, with prediction row 1
    and --eta as given."""
    lens = tmp_path / "lens.csv"
    lens.write_text(f"receiver_index,ell_p,ell_s\n0,0.5,0.9\n{row1}\n2,0.5,0.9\n")
    return ["extract", "--traces", str(small_sim[0]), "--lens", str(lens),
            "--eta", eta, "--out", str(tmp_path / "out.csv")]


@pytest.mark.parametrize("setting", [
    {"eta": "2"}, {"eta": "nan"}, {"eta": "0"},
    {"row1": "1,-1,0.9"}, {"row1": "1,0.5,-0.1"}, {"row1": "1,inf,0.9"},
    {"row1": "1,0.5,nan"},
], ids=["eta-2", "eta-nan", "eta-0", "ell-p-negative", "ell-s-negative", "ell-p-inf",
        "ell-s-nan"])
def test_extract_refuses_bad_eta_and_travel_times_with_exit_2(tmp_path, capsys, small_sim,
                                                               setting):
    # a bad run setting or prediction table is a configuration error, not an
    # extraction failure; only an empty cell says "no prediction"
    assert run(_extract_argv(tmp_path, small_sim, **setting)) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("row1, ell_p, ell_s", [("1,,0.9", "", "0.9"), ("1,,", "", "")],
                         ids=["p", "both"])
def test_extract_reads_an_empty_prediction_cell_as_no_prediction(tmp_path, small_sim,
                                                                 row1, ell_p, ell_s):
    assert run(_extract_argv(tmp_path, small_sim, row1=row1)) == cli.EXIT_OK
    rows = list(csv.DictReader((tmp_path / "out.csv").read_text().splitlines()))
    assert (rows[1]["ell_p"], rows[1]["ell_s"]) == (ell_p, ell_s)
    assert ("no-prediction" in rows[1]["flags"]) == (ell_s == "")


def test_extract_refuses_receiver_csvs_of_different_lengths(tmp_path, capsys, small_sim):
    # the traces of one simulate run share one length and one dt
    traces = tmp_path / "traces"
    shutil.copytree(small_sim[0], traces)
    csv_path = traces / "receiver_001.csv"
    csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:-1]))
    lens = tmp_path / "lens.csv"
    lens.write_text("receiver_index,ell_p,ell_s\n"
                    + "".join(f"{k},0.5,0.9\n" for k in range(3)))
    assert run(["extract", "--traces", str(traces), "--lens", str(lens),
                "--out", str(tmp_path / "out.csv")]) == cli.EXIT_CONFIG
    assert str(traces) in capsys.readouterr().err


# positive nodes, but the natural spline through them dips to -0.48 near r = 0.31
DIPPING_PROFILE_MODEL = {
    "format": 1,
    "domain": {"shape": "disk", "radius": 1.0},
    "speed": {"kind": "radial",
              "profile": [[0.0, 1.0], [0.45, 0.05], [0.55, 1.0], [1.2, 1.0]]},
}


def test_validate_reports_a_speed_that_dips_inside_the_domain(tmp_path, capsys):
    out = tmp_path / "reports" / "validate.json"
    path = write_model(tmp_path, DIPPING_PROFILE_MODEL)
    assert run(["validate", "--model", path, "--out", str(out)]) == cli.EXIT_MODEL
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report == json.loads(out.read_text())
    assert report["pass"] is False
    [finding] = report["findings"]
    assert finding.startswith("non-positive speed -")
    assert captured.err == "model error: validation failed with 1 finding(s)\n"


def test_lens_writes_trapped_rays_with_empty_exit_cells(tmp_path):
    out = tmp_path / "lens.csv"
    assert run(["lens", "--model", write_model(tmp_path, LINEAR_RADIAL_MODEL),
                "--points", "2", "--angles", "3", "--tmax", "0.05", "--out", str(out)]) == 0
    rows = cli.read_lens_csv(out)
    assert len(rows) == 6
    for row in rows:
        assert row["status"] == RayStatus.TRAPPED.value
        assert (row["exit_s"], row["exit_angle"], row["ell"]) == (None, None, None)


_NON_FINITE = "model JSON holds the non-finite number "
_TOO_BIG = "malformed model JSON: an integer of 401 digits is too large for a float"


@pytest.mark.parametrize("text, message", [
    ('{"domain": {"shape": "disk", "radius": 1.0}, "speed": {"kind": "radial", '
     '"profile": [[0.0, 2.0], [NaN, 1.5], [1.2, 0.8]]}}', _NON_FINITE + "NaN"),
    ('{"domain": {"shape": "box", "lo": [0, 0], "hi": [1, 1]}, "material": {"lambda": '
     '{"kind": "linear", "a": 1.0, "b": [NaN, 0.0]}, "mu": 1.0, "rho": 1.0}}',
     _NON_FINITE + "NaN"),
    ('{"domain": {"shape": "disk", "radius": 1.0}, "speed": {"kind": "radial", '
     '"profile": [[0.0, 2.0], [0.5, Infinity], [1.2, 0.8]]}}', _NON_FINITE + "Infinity"),
    ('{"domain": {"shape": "disk", "radius": 1e999}, "speed": 1.0}', _NON_FINITE + "1e999"),
    (f'{{"domain": {{"shape": "disk", "radius": {10**400}}}, "speed": 1.0}}', _TOO_BIG),
    ('{"domain": {"shape": "box", "lo": [0, 0], "hi": [1, 1]}, "material": {"lambda": '
     f'{{"kind": "linear", "a": 1.0, "b": [{10**400}, 0.0]}}, "mu": 1.0, "rho": 1.0}}}}',
     _TOO_BIG),
], ids=["profile-radius-nan", "linear-b-nan", "profile-speed-infinity", "radius-overflow",
        "radius-integer-overflow", "linear-b-integer-overflow"])
@pytest.mark.parametrize("command", [["validate"], ["check-foliation", "--foliation", "spheres",
                                                    "--range", "0.1,0.9"]],
                         ids=["validate", "check-foliation"])
def test_non_finite_numbers_in_model_files_exit_3(tmp_path, capsys, text, message, command):
    # json reads them as floats, or as integers no float holds; refused at
    # load, before numpy meets them
    path = tmp_path / "model.json"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*command, "--model", str(path)]) == cli.EXIT_MODEL
    captured = capsys.readouterr()
    assert captured.err == f"model error: {message}\n"
    assert captured.out == ""


def test_extract_refuses_a_non_finite_trace_sample(tmp_path, capsys, small_sim):
    traces = tmp_path / "traces"
    shutil.copytree(small_sim[0], traces)
    csv_path = traces / "receiver_001.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    t, _, nu_y = lines[5].split(",")
    lines[5] = f"{t},nan,{nu_y}"
    csv_path.write_text("".join(lines))
    lens = tmp_path / "lens.csv"
    lens.write_text("receiver_index,ell_p,ell_s\n"
                    + "".join(f"{k},0.5,0.9\n" for k in range(3)))
    assert run(["extract", "--traces", str(traces), "--lens", str(lens),
                "--out", str(tmp_path / "out.csv")]) == cli.EXIT_CONFIG
    assert f"CSV {csv_path} holds a non-finite number" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()
