import os
import sys
import time
import weakref

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


def random_profile(rng, kmax=16, zero_mean=False, scale=1.0):
    """Random Fourier profile used by the closed-form property tests."""
    from fklab.circle import BoundaryProfile

    k = rng.integers(1, kmax + 1)
    cos = rng.standard_normal(k) * scale
    sin = rng.standard_normal(k) * scale
    a0 = 0.0 if zero_mean else float(rng.standard_normal()) * scale
    return BoundaryProfile(a0, cos, sin)


_DIRECT = weakref.WeakKeyDictionary()


def direct(mesh):
    """The factorization of a mesh's interior stiffness by
    ``fem.factorize``: as the ``precond`` of a solver it makes the first
    solve a direct one, the reference that the tests compare the
    V-cycle solves of ``stability.Level`` with.  Built once per mesh."""
    from fklab import fem

    if mesh not in _DIRECT:
        _DIRECT[mesh] = fem.factorize(mesh.stiffness)
    return _DIRECT[mesh]


@pytest.fixture(scope="session")
def combined_sweep():
    """The full acceptance sweep (8 ellipses + 52 random near-spheres),
    computed once per session and shared by every criterion that needs it."""
    from fklab import stability

    spec = stability.SweepSpec()
    workers = stability.available_cpus()
    start = time.monotonic()
    result = stability.sigma_scan(spec, workers=workers)
    elapsed = time.monotonic() - start
    return result, elapsed


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
