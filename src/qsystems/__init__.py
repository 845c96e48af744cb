"""Finite-dimensional verification toolkit for the algebraic laws of
many-component quantum systems.

Subpackages cover the association calculus of individuals, dense
states/operators over explicit tensor factors, the centrally extended
Galilei algebra with concrete representations, permutation symmetrization,
spin-spin dynamics, charge superselection, and correlated-pair / CHSH
machinery with local hidden-variable baselines.
"""

__version__ = "0.1.0"

from .hilbert import Operator, SpaceSpec, StateVector, lift

__all__ = ["__version__", "SpaceSpec", "StateVector", "Operator", "lift"]
