import json

import numpy as np
import pytest
from hypothesis import settings

from elastic_lens.model_core import (BoxDomain, ConstantField, DiskDomain,
                                     ElasticMaterial, RadialField)

# property tests draw the same few examples on every run
settings.register_profile("elastic-lens", derandomize=True, deadline=None,
                          max_examples=10, database=None)
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
