"""Self-adjoint extensions of -d^2/dx^2 + V(x) on a finite interval.

The package realizes the one-to-one correspondence between the 2x2
unitary parametrizing an extension through its deficiency subspaces and
the unitary fixing the boundary conditions at the interval endpoints,
classifies those boundary conditions (Robin, Neumann, Dirichlet,
periodic, anti-periodic, automorphic, mixed), and computes each
extension's spectrum by counting its levels below each energy.
"""

from .bcclassify import BoundaryCondition, apply_bc, classify, synthesize
from .deficiency import DeficiencyBasis, change_of_basis, solve_even_odd, solve_orthonormal_pair
from .extmap import (MapPair, Unitary2, build_V_Vtilde, check_identities, forward_map,
                     forward_map_general, haar_unitary, inverse_map)
from .odesolve import OdeSolution, integrate, l2_inner
from .potential import Potential
from .spectrum import SpectrumResult, det_function, eigenfunction_residuals, find_eigenvalues

__all__ = [
    "BoundaryCondition", "DeficiencyBasis", "MapPair", "OdeSolution", "Potential",
    "SpectrumResult", "Unitary2", "apply_bc", "build_V_Vtilde", "change_of_basis",
    "check_identities", "classify", "det_function", "eigenfunction_residuals",
    "find_eigenvalues", "forward_map", "forward_map_general", "haar_unitary",
    "integrate", "inverse_map", "l2_inner", "solve_even_odd", "solve_orthonormal_pair",
    "synthesize",
]

__version__ = "0.1.0"
