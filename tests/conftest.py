import json
import os

import numpy as np
import pytest
from hypothesis import Phase, settings

from elastic_lens.inversion import forward_travel_times
from elastic_lens.model_core import (BoxDomain, ConstantField, DiskDomain,
                                     ElasticMaterial, RadialField)

# property tests draw the same few examples on every run.  No explain phase:
# it re-runs a shrunk failure under a line tracer, which on the ray tracer's
# step loop takes minutes and grows memory before the failure is reported
settings.register_profile("elastic-lens", derandomize=True, deadline=None,
                          max_examples=10, database=None,
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("elastic-lens")

UNIT_BOX_MODEL = {
    "format": 1,
    "domain": {"shape": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    "material": {"lambda": {"kind": "constant", "c": 1.0},
                 "mu": {"kind": "constant", "c": 1.0},
                 "rho": {"kind": "constant", "c": 1.0}},
}

# width-1 strip, elongated along y so that top/bottom edge reflections and
# conversions arrive after the direct arrivals in the receiver windows
TALL_BOX_MODEL = {
    "format": 1,
    "domain": {"shape": "box", "lo": [0.0, 0.0], "hi": [1.0, 2.4]},
    "material": {"lambda": {"kind": "constant", "c": 1.0},
                 "mu": {"kind": "constant", "c": 1.0},
                 "rho": {"kind": "constant", "c": 1.0}},
}

LINEAR_RADIAL_MODEL = {
    "format": 1,
    "domain": {"shape": "disk", "radius": 1.0},
    "speed": {"kind": "radial",
              "profile": [[0.0, 2.0], [0.55, 1.45], [1.0, 1.0], [1.2, 0.8]]},
}


@pytest.fixture
def unit_material():
    one = ConstantField(1.0, dim=2)
    return ElasticMaterial(lam=one, mu=one, rho=one)


@pytest.fixture
def unit_box():
    return BoxDomain((0.0, 0.0), (1.0, 1.0))


@pytest.fixture
def unit_disk():
    return DiskDomain(1.0)


@pytest.fixture
def linear_radial_speed():
    # c(r) = 2 - r, exactly representable by the natural-spline profile
    return RadialField(profile=[(0.0, 2.0), (0.5, 1.5), (1.0, 1.0), (1.2, 0.8)],
                       dim=2)


def triplicating_speed(r):
    """c = 1.3 - 0.3 r above r = 0.75 and a gradient of 2.5 below: r / c
    stays increasing, and the gradient jump folds the travel-time curve."""
    return np.where(r >= 0.75, 1.3 - 0.3 * r, 1.075 + 2.5 * (0.75 - r))


def triplicating_field():
    """triplicating_speed as a radial field on the unit disk and its collar."""
    return RadialField(func=triplicating_speed,
                       dfunc=lambda r: np.where(r >= 0.75, -0.3, -2.5), r_max=1.2)


@pytest.fixture(scope="session")
def triplicating_curve():
    """(delta, time) of 48 rays through triplicating_speed on the unit disk."""
    return forward_travel_times(triplicating_field(), 1.0, np.linspace(0.06, 1.51, 48))


def assert_no_child():
    """The calling process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_model(path, doc):
    if path.is_dir():
        path = path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    def _write(doc, name="model.json"):
        return write_model(tmp_path / name, doc)
    return _write


def read_csv_columns(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows
