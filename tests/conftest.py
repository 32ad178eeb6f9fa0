import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wigner.assembly import PhaseSpaceBasis
from wigner.basis import WaveletBasis, daubechies_filter


@pytest.fixture(scope="session")
def db4():
    return daubechies_filter(4)


@pytest.fixture(scope="session")
def db6():
    return daubechies_filter(6)


@pytest.fixture(scope="session")
def basis6(db6):
    """Workhorse 1D basis: order 6, 32 functions on [-4, 4)."""
    return WaveletBasis(filter=db6, j_coarse=3, j_fine=5, domain=(-4.0, 4.0))


@pytest.fixture(scope="session")
def basis6f(db6):
    """Finer 1D basis for projection-accuracy oracles: 128 functions on [-6, 6)."""
    return WaveletBasis(filter=db6, j_coarse=3, j_fine=7, domain=(-6.0, 6.0))


@pytest.fixture(scope="session")
def ps6():
    """Workhorse 2D basis: 32 x 32 on [-4, 4)^2."""
    return PhaseSpaceBasis(order=6, j_coarse=3, j_fine=5,
                           q_min=-4.0, q_max=4.0, p_min=-4.0, p_max=4.0)


@pytest.fixture(scope="session")
def ps6w():
    """Wide, finer 2D basis for quantitative action oracles: 64 x 64 on [-6, 6)^2."""
    return PhaseSpaceBasis(order=6, j_coarse=3, j_fine=6,
                           q_min=-6.0, q_max=6.0, p_min=-6.0, p_max=6.0)


@pytest.fixture(scope="session")
def gaussian_field6w(ps6w):
    from wigner.solve import CoefficientField

    coeffs = ps6w.project(lambda q, p: np.exp(-q ** 2 - p ** 2) / np.pi)
    return CoefficientField(ps=ps6w, coeffs=coeffs)


@pytest.fixture(scope="session")
def gaussian_field6(ps6):
    from wigner.solve import CoefficientField

    coeffs = ps6.project(lambda q, p: np.exp(-q ** 2 - p ** 2) / np.pi)
    return CoefficientField(ps=ps6, coeffs=coeffs)
