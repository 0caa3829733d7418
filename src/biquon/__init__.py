"""Deformed quon algebras, biorthogonal families and bi-coherent states."""

from .qcore import BetaSequence, bracket, disc_radius
from .fock import (
    FockOperator,
    identity_plus,
    make_quon_c,
    qmutator_residual,
)
from .pseudoquon import (
    BiorthogonalFamily,
    Deformation,
    build_family,
    build_theta,
    check_ladder,
    check_theta_conjugate,
    closed_form_theta,
    gram_deviation,
    make_pair,
    number_eigencheck,
    worked_deformation,
)
from .bicoherent import (
    BiCoherentState,
    UncertaintyResult,
    bicoherent_state,
    eigen_check,
    empirical_radius,
    normalization,
    pairing,
    quon_coherent_vector,
    radius_bound_ratios,
    ratio_radius,
    uncertainty_product,
)
from .resolution import (
    RadialQuadrature,
    resolution_check,
    solve_moment_measure,
)
from . import positionrep

__version__ = "0.1.0"
