"""Numerical laboratory for quantitative Faber-Krahn and Saint-Venant
stability on star-shaped planar domains.

Submodules: :mod:`~fklab.circle` (exact Fourier calculus on the unit
circle), :mod:`~fklab.domain` (star-shaped domains, ellipse family,
volume flow), :mod:`~fklab.fem` (P1 finite elements on matched polar
meshes), :mod:`~fklab.asymmetry` (Fraenkel and smoothed asymmetries,
volume penalty), :mod:`~fklab.stability` (deficits, expansions,
sweeps), :mod:`~fklab.cli` (command-line front end).
"""

from .circle import BoundaryProfile, ProjectionSplit
from .domain import StarDomain
from .fem import ScalarField, SolveStats, SolverError, TriMesh
from .stability import DeficitReport, SweepResult, SweepSpec

__version__ = "0.1.0"

__all__ = [
    "BoundaryProfile",
    "ProjectionSplit",
    "StarDomain",
    "TriMesh",
    "ScalarField",
    "SolveStats",
    "SolverError",
    "DeficitReport",
    "SweepResult",
    "SweepSpec",
    "__version__",
]
