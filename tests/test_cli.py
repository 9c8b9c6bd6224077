import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elastic_lens import cli, elastic_sim
from tests.conftest import (LINEAR_RADIAL_MODEL, UNIT_BOX_MODEL, write_model)

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


def test_trace_json(tmp_path, capsys):
    path = write_model(tmp_path, CONSTANT_DISK_MODEL)
    assert run(["trace", "--model", str(path), "--entry-s", "0.0",
                "--angle", "0.7", "--dt", "5e-4"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == "Exited"
    x_in = np.array(rec["entry"]["x"])
    x_out = np.array(rec["exit"]["x"])
    assert rec["ell"] == pytest.approx(np.linalg.norm(x_out - x_in), abs=1e-5)


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


def test_simulate_outputs_and_manifest(small_sim):
    out = small_sim[0]
    assert (out / "manifest.json").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["grid"]["h"] == pytest.approx(0.02)
    assert len(list(out.glob("receiver_*.csv"))) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert "inputs" in manifest


def test_simulate_reruns_byte_identical(small_sim):
    a, b = small_sim
    for f in sorted(a.glob("receiver_*.csv")):
        assert f.read_bytes() == (b / f.name).read_bytes()
    assert ((a / "metadata.json").read_bytes()
            == (b / "metadata.json").read_bytes())


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_simulate_blow_up_exits_5(tmp_path, monkeypatch):
    # ten times the default time step: the leapfrog scheme overflows within
    # a few hundred steps, and the run must stop with a simulation error
    monkeypatch.setattr(elastic_sim, "CFL_SAFETY", 5.0)
    model = write_model(tmp_path, UNIT_BOX_MODEL)
    assert run(["simulate", "--model", str(model),
                "--source", "edge=left,center=0.5,width=0.2,f0=8,pol=1,0",
                "--receivers", "edge=right,count=3",
                "--T", "40", "--h", "0.05",
                "--out", str(tmp_path / "out")]) == cli.EXIT_SIMULATION


def test_cli_import_leaves_scipy_signal_unloaded():
    code = "import sys, elastic_lens.cli; print('scipy.signal' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_radial_pipeline(tmp_path, capsys):
    model = write_model(tmp_path, LINEAR_RADIAL_MODEL)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "radial",
        "model": str(model),
        "radial": {"n_rays": 16, "dt": 2e-3},
    }))
    out = tmp_path / "run"
    assert run(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["max_rel_err"] < 0.01
    assert (out / "curve.csv").exists()
    assert (out / "profile.csv").exists()
    assert (out / "manifest.json").exists()


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


def test_pipeline_missing_model_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "radial"}))
    assert run(["pipeline", "--config", str(cfg),
                "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG
