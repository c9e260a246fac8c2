import sys

import numpy as np
import pytest

from dirquant import geometry
from dirquant.geometry import Dataset, Direction


@pytest.fixture
def projections(monkeypatch):
    """A list that gets one entry per ``geometry.project`` call made through
    any dirquant module that binds it."""
    calls = []
    real = geometry.project

    def counted(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs["direction"])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dirquant.") and getattr(module, "project", None) is real:
            monkeypatch.setattr(module, "project", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def diag_direction():
    return Direction(u=np.array([1.0, 1.0]) / np.sqrt(2.0), tau=0.2)


@pytest.fixture
def vertical_direction():
    return Direction(u=np.array([0.0, 1.0]), tau=0.2)


@pytest.fixture
def square_data(rng):
    return Dataset(y=rng.uniform(-0.5, 0.5, size=(2000, 2)))


@pytest.fixture
def normal_data(rng):
    chol = np.linalg.cholesky(np.array([[1.0, 1.5], [1.5, 9.0]]))
    return Dataset(y=rng.standard_normal((2000, 2)) @ chol.T)
