"""End-to-end acceptance gate.

Each test asserts one externally checkable property of the toolchain at
desk scale: ray-tracer exactness, Hamiltonian conservation, the full
simulate/extract/invert chain with its stated tolerances, the radial
travel-time round trip, the flat-metric calibration of the convexity
check, boundary-data reconstruction, mode-projector fidelity, discrete
reciprocity, grid convergence and byte-level determinism.
"""

import csv
import hashlib
import json
import math
import time

import numpy as np
import pytest

from elastic_lens import cli
from elastic_lens.convexity import conformal_second_fundamental_form
from elastic_lens.elastic_sim import BoundarySource, bump, simulate_dn
from elastic_lens.model_core import (BoxDomain, ConstantField, DiskDomain,
                                     ElasticMaterial, RadialField)
from elastic_lens.ray_tracer import (DT, RayStatus, entry_at, hamiltonian,
                                     integrate_bicharacteristic,
                                     scattering_relation)
from elastic_lens.wavefield_analysis import extract_lens, project_modes
from tests.conftest import TALL_BOX_MODEL, write_model

SQRT3_OVER_2 = 0.8660254037844386
F0 = 20.0


# ---------------------------------------------------------------------------
# A1: ray-tracer exactness on a constant-speed disk
# ---------------------------------------------------------------------------


def test_a1_constant_speed_rays_are_chords():
    c = 1.3
    speed = ConstantField(c, dim=2)
    disk = DiskDomain(1.0, dim=2)
    t0 = time.monotonic()
    for s in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        for a in np.linspace(0.05, 1.5, 16):
            bd = entry_at(disk, s, a)
            # constant speed: the flow is linear in t, so the largest step is
            # still integrated exactly, and the exit on its dense output too
            rec = scattering_relation(speed, disk, bd, t_max=5.0, dt=DT)
            assert rec.status is RayStatus.EXITED
            x0, v = np.asarray(bd.x), np.asarray(bd.v)
            chord = -2.0 * float(x0 @ v)
            assert np.max(np.abs(np.asarray(rec.exit.x) - (x0 + chord * v))) < 1e-9
            assert np.max(np.abs(np.asarray(rec.exit.v) - v)) < 1e-9
            assert abs(rec.ell - chord / c) < 1e-9
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# A2: Hamiltonian conservation along the bicharacteristic flow
# ---------------------------------------------------------------------------


def test_a2_hamiltonian_drift_bounded():
    # the profile extends past the disk so rays integrated for a fixed
    # duration stay inside the field's support after they exit
    speed = RadialField(profile=[(0.0, 2.0), (0.5, 1.5), (1.0, 1.0),
                                 (1.9, 0.1)], dim=2)
    disk = DiskDomain(1.0, dim=2)
    t_max = 1.2
    entries = [entry_at(disk, s, a)
               for s in np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
               for a in np.linspace(0.05, 1.5, 16)]
    x0 = np.array([bd.x for bd in entries])
    xi0 = np.array([bd.v for bd in entries]) / speed.eval(x0)[0][:, None]
    # all 256 rays in one batched integration
    x, xi = integrate_bicharacteristic(speed, x0, xi0, t_max=t_max, dt=1e-3)
    worst = float(np.max(np.abs(hamiltonian(speed, x, xi) - 0.5)) / 0.5)
    assert worst <= 1e-8 * t_max


# ---------------------------------------------------------------------------
# A3 / A9 / A10 shared fixtures: the full homogeneous-box chain
# ---------------------------------------------------------------------------


def _read_extracted(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _homog_config(model_path):
    # The box is 1 wide and 2.4 tall with source and receivers centred on
    # the long walls: side-wall reflections and corner-edge converted
    # phases then arrive after both direct windows at every receiver,
    # which a unit square does not achieve for any receiver fan.
    return {
        "mode": "homogeneous",
        "model": model_path,
        "T": 1.3,
        "h": 0.0025,
        "eta": 0.05,
        "source": {"edge": "left", "center": 1.2, "width": 0.1, "f0": F0,
                   "pol": [0.5, SQRT3_OVER_2]},
        "receivers": {"edge": "right", "count": 16,
                      "center": 1.2, "width": 0.48},
    }


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("endtoend")
    model = write_model(tmp, TALL_BOX_MODEL)
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(_homog_config(model)))
    runs, durations = [], []
    for name in ("run1", "run2"):
        out = tmp / name
        t0 = time.monotonic()
        assert cli.main(["pipeline", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        durations.append(time.monotonic() - t0)
        runs.append(out)
    return {"tmp": tmp, "model": model, "cfg_path": cfg_path,
            "runs": runs, "durations": durations}


def test_a3_arrival_times_within_three_percent(end_to_end):
    rows = _read_extracted(end_to_end["runs"][0] / "extracted.csv")
    assert len(rows) == 16
    for row in rows:
        assert float(row["rel_err_p"]) < 0.03
        assert float(row["rel_err_s"]) < 0.03
    assert max(end_to_end["durations"]) < 300.0


def test_a3_manifest_pins_the_cell_steps(end_to_end):
    # the source drives row 0 and the receivers sit on row 400 of 401: step
    # n of 693 runs on rows [0, 2 n + 3) cut to [400 - 2 (693 - n), 401)
    stages = json.loads((end_to_end["runs"][0] / "manifest.json").read_text())["stages"]
    counters = next(s["counters"] for s in stages if s["name"] == "simulate")
    assert counters["cell_steps"] == 401 * 961 * 693 == 267_055_173
    assert counters["window_cell_steps"] == 190_559_573 == 961 * sum(
        min(401, 2 * n + 3) - max(0, 400 - 2 * (693 - n)) for n in range(693))


def test_a3_picks_stable_under_smooth_background(end_to_end):
    traces_dir = end_to_end["runs"][0] / "traces"
    traces, dt, source = cli._read_traces_dir(traces_dir)
    predictions = cli._read_predictions(
        end_to_end["runs"][0] / "predictions.csv", len(traces))
    base = extract_lens(traces, dt, source, predictions, eta=0.05)

    rng = np.random.default_rng(7)
    amp0 = 0.5 * max(float(np.max(np.abs(tr))) for tr in traces)
    perturbed = []
    for tr in traces:
        t = dt * np.arange(len(tr))
        bg = np.zeros_like(tr)
        for k in range(3):
            freq = 0.3 * (F0 / 10.0) * (k + 1)       # well below f0
            for comp in range(2):
                bg[:, comp] += (amp0 / (k + 1)) * np.sin(
                    2 * np.pi * freq * t + rng.uniform(0.0, 2 * np.pi))
        perturbed.append(tr + bg)
    shifted = extract_lens(np.array(perturbed), dt, source, predictions, eta=0.05)

    worst = 0.0
    for a, b in zip(base, shifted):
        assert b.t_p is not None and b.t_s is not None
        worst = max(worst, abs(a.t_p - b.t_p), abs(a.t_s - b.t_s))
    assert worst < 1.0 / F0


# ---------------------------------------------------------------------------
# A4 / A10 shared fixture: the radial travel-time round trip
# ---------------------------------------------------------------------------

RADIAL_MODEL = {
    "format": 1,
    "domain": {"shape": "disk", "radius": 1.0},
    "speed": {"kind": "radial",
              "profile": [[0.0, 2.0], [0.5, 1.5], [1.0, 1.0], [1.2, 0.8]]},
}


@pytest.fixture(scope="module")
def radial_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("radial")
    model = write_model(tmp, RADIAL_MODEL)
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps({"mode": "radial", "model": model}))
    runs, durations = [], []
    for name in ("run1", "run2"):
        out = tmp / name
        t0 = time.monotonic()
        assert cli.main(["pipeline", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        durations.append(time.monotonic() - t0)
        runs.append(out)
    return {"runs": runs, "durations": durations}


def test_a4_radial_roundtrip_within_one_percent(radial_runs):
    run = radial_runs["runs"][0]
    foliation = json.loads((run / "foliation.json").read_text())
    assert foliation["verdict"] == "strictly convex"
    assert foliation["margin"] > 0.0
    report = json.loads((run / "report.json").read_text())
    assert report["max_rel_err"] < 0.01
    assert max(radial_runs["durations"]) < 60.0


# ---------------------------------------------------------------------------
# A5: flat-metric calibration of the convexity machinery
# ---------------------------------------------------------------------------


def test_a5_spheres_exactly_flat_for_speed_equal_radius():
    # with c(x) = |x| the spheres |x| = r all have conformal second
    # fundamental form identically zero; the Euclidean ambient form of the
    # sphere of radius r is 1/r per unit tangent vector
    speed = RadialField(func=lambda r: r, dfunc=lambda r: 1.0,
                        r_max=4.0, dim=3)
    rng = np.random.default_rng(11)
    radii = np.linspace(0.2, 1.8, 32)
    worst = 0.0
    for r in radii:
        for _ in range(64):
            omega = rng.standard_normal(3)
            omega /= np.linalg.norm(omega)
            x = r * omega
            for _ in range(16):
                t = rng.standard_normal(3)
                t -= (t @ omega) * omega
                t /= np.linalg.norm(t)
                val = conformal_second_fundamental_form(
                    speed, tuple(x), tuple(t), tuple(omega),
                    ambient_form=1.0 / r)
                worst = max(worst, abs(val))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# A6: boundary-data round trip with a manufactured displacement
# ---------------------------------------------------------------------------


def test_a6_manufactured_normal_derivative_roundtrip():
    from elastic_lens.wavefield_analysis import (cauchy_to_neumann,
                                                 neumann_to_cauchy)
    lam, mu = 1.3, 0.8
    n = 33
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u = np.stack([0.2 + 0.3 * X + 0.1 * Y ** 2,
                  0.5 * X * Y - 0.2 * X ** 2,
                  1.0 - 0.4 * X ** 2 + 0.2 * Y], axis=-1)
    dz = np.stack([0.1 + 0.2 * Y, 0.3 * X - 0.1 * Y, -0.2 + 0.1 * X], axis=-1)
    h = xs[1] - xs[0]
    nu = cauchy_to_neumann(u, dz, lam, mu, h)
    dz_rec = neumann_to_cauchy(u, nu, lam, mu, h)
    scale = max(1.0, float(np.max(np.abs(dz))))
    assert np.max(np.abs(dz_rec - dz)) <= 1e-12 * scale
    nu_back = cauchy_to_neumann(u, dz_rec, lam, mu, h)
    assert np.max(np.abs(nu_back - nu)) <= 1e-12 * max(1.0, float(np.max(np.abs(nu))))


# ---------------------------------------------------------------------------
# A7: mode-projector fidelity at 256^2
# ---------------------------------------------------------------------------


def test_a7_mode_projector_fidelity():
    n, h = 256, 1.0 / 255
    k = (2 * np.pi * 6, 2 * np.pi * 4)
    khat = np.asarray(k) / np.linalg.norm(k)
    wavelength = 2 * np.pi / np.linalg.norm(k)
    m = int(np.ceil(2 * wavelength / h))
    sl = (slice(m, n - m), slice(m, n - m))

    xs = h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    phase = k[0] * X + k[1] * Y
    for longitudinal in (True, False):
        pol = khat if longitudinal else np.array([-khat[1], khat[0]])
        u = np.empty((n, n, 2))
        u[:, :, 0] = pol[0] * np.cos(phase)
        u[:, :, 1] = pol[1] * np.cos(phase)
        modes = project_modes(u, h)
        wrong = modes.s_part if longitudinal else modes.p_part
        assert np.max(np.abs(wrong[sl])) / np.max(np.abs(u[sl])) < 1e-3

    rng = np.random.default_rng(21)
    u = rng.standard_normal((n, n, 2))
    modes = project_modes(u, h)
    assert np.max(np.abs(modes.p_part + modes.s_part - u)) < 1e-8
    again = project_modes(modes.p_part, h)
    assert np.max(np.abs(again.p_part - modes.p_part)) < 1e-8


# ---------------------------------------------------------------------------
# A8: discrete reciprocity under source/receiver swap
# ---------------------------------------------------------------------------


def test_a8_source_receiver_swap_reciprocity():
    # Betti reciprocity for the boundary map: with a shared wavelet, the
    # B-patch-weighted traction from source A equals the A-patch-weighted
    # traction from source B; one-sided boundary stencils limit the match
    mat = ElasticMaterial(ConstantField(1.0, dim=2), ConstantField(1.0, dim=2),
                          ConstantField(1.0, dim=2))
    box = BoxDomain((0.0, 0.0), (1.0, 1.0))
    h, f0 = 0.005, 10.0
    patch_a = {"edge": "left", "center": 0.4, "width": 0.12,
               "pol": np.array([0.8, 0.6])}
    patch_b = {"edge": "bottom", "center": 0.6, "width": 0.12,
               "pol": np.array([0.6, -0.8])}

    def patch_nodes(p):
        s = np.arange(0.0, 1.0 + 1e-12, h)
        sel = np.abs(s - p["center"]) < 0.5 * p["width"]
        pts = [((0.0, v) if p["edge"] == "left" else (v, 0.0))
               for v in s[sel]]
        return pts, bump(s[sel], p["center"], p["width"])

    def weighted_trace(src_patch, rec_patch):
        src = BoundarySource(edge=src_patch["edge"],
                             center=src_patch["center"],
                             width=src_patch["width"], f0=f0,
                             polarization=tuple(src_patch["pol"]))
        pts, w = patch_nodes(rec_patch)
        res = simulate_dn(mat, box, src, pts, T=1.6, h=h)
        sig = np.zeros(len(res.traces[0]))
        for trace, wk in zip(res.traces, w):
            sig += wk * (trace @ rec_patch["pol"]) * h
        return sig

    a = weighted_trace(patch_a, patch_b)
    b = weighted_trace(patch_b, patch_a)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 0.05


# ---------------------------------------------------------------------------
# A9: halving h reduces the arrival-time error
# ---------------------------------------------------------------------------


def _max_abs_arrival_error(extracted_path):
    worst = 0.0
    for row in _read_extracted(extracted_path):
        worst = max(worst,
                    abs(float(row["t_p"]) - float(row["ell_p"])),
                    abs(float(row["t_s"]) - float(row["ell_s"])))
    return worst


def test_a9_error_drops_when_h_halves(end_to_end, tmp_path):
    cfg = _homog_config(end_to_end["model"])
    cfg["h"] = 0.005                       # twice the fine-run spacing
    cfg_path = tmp_path / "coarse.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "coarse"
    assert cli.main(["pipeline", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    coarse = _max_abs_arrival_error(out / "extracted.csv")
    fine = _max_abs_arrival_error(end_to_end["runs"][0] / "extracted.csv")
    assert coarse / fine >= 1.7


# ---------------------------------------------------------------------------
# A10: byte-identical reruns
# ---------------------------------------------------------------------------


def _data_files(run_dir):
    # every artifact except the manifest, which records wall-clock duration
    return sorted(p.relative_to(run_dir) for p in run_dir.rglob("*")
                  if p.is_file() and p.name != "manifest.json")


def _assert_runs_identical(run1, run2):
    files1, files2 = _data_files(run1), _data_files(run2)
    assert files1 == files2
    for rel in files1:
        assert (run1 / rel).read_bytes() == (run2 / rel).read_bytes(), rel


def test_a10_homogeneous_chain_is_deterministic(end_to_end):
    _assert_runs_identical(*end_to_end["runs"])


def test_a10_radial_chain_is_deterministic(radial_runs):
    _assert_runs_identical(*radial_runs["runs"])


def test_radial_chain_bytes_are_pinned(radial_runs):
    # the ray chain's outputs on the A4 model, pinned: a change to the step
    # arithmetic, the exit search, the field evaluation, the inversion or the
    # Herglotz check's leaves shows here
    run = radial_runs["runs"][0]
    assert {name: hashlib.sha256((run / name).read_bytes()).hexdigest()
            for name in ("curve.csv", "profile.csv", "foliation.json")} == {
        "curve.csv": "e03d4333206e53cfa4da0727cdefca1e2f220c6c23c45915afc7295da8390740",
        "profile.csv": "ee970be6102d0891e761216b6df123e3f0edb6c5192d51b1ea7e6300a458df08",
        "foliation.json": "8c290c4462cc22bf93223131412d38e8ed6d323a7b7c347086f193ffad7eaae8"}


def test_a4_manifest_pins_the_ray_counts(radial_runs):
    # 48 rays, each with its own steps of at most DT and COLLAR / (2 c), take
    # 1041 steps in 50 passes (301 flow evaluations: one at the entries and six
    # a pass); 180 tries are retried, 2 over DP5_TOL, 48 to end at the ray's
    # turn and 130 to end on a knot of the profile (96 of them exit steps, on
    # the knot r = 1 at the disk's edge).  The Hamiltonian drifts 7.9e-9 by the
    # exits.  The profile has a node a ray, and r / c grows along it.  Every
    # stage records its CPU seconds
    stages = json.loads((radial_runs["runs"][0] / "manifest.json").read_text())["stages"]
    assert all(s["cpu_seconds"] >= 0.0 for s in stages)
    counters = next(s["counters"] for s in stages if s["name"] == "invert")
    assert counters.pop("herglotz_margin") > 0.0
    assert 0.0 < counters.pop("hamiltonian_drift") <= 1e-8
    assert counters == {"passes": 50, "steps": 1041, "rejected_steps": 180,
                        "ray_status": {"Exited": 48}, "nodes": 48}
