"""Deformed quon algebras, biorthogonal families and bi-coherent states."""

from .qcore import (
    BetaSequence,
    beta,
    beta_sq,
    disc_radius,
    log_number_eigenvalue,
    q_factorial,
    q_factorial_sq,
    q_number,
    q_number_factorial,
)
from .fock import (
    FockOperator,
    identity_plus,
    make_quon_c,
    qmutator_residual,
)
from .pseudoquon import (
    BiorthogonalFamily,
    IdentitySimilarity,
    RankOneDeformation,
    RankOneSimilarity,
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
    RadiusReport,
    UncertaintyResult,
    bicoherent_state,
    eigen_check,
    empirical_radius,
    family_radius,
    normalization,
    pairing,
    quon_coherent_vector,
    radius_report,
    uncertainty_product,
)
from .resolution import (
    RadialQuadrature,
    resolution_check,
    solve_moment_measure,
)
from . import positionrep

__version__ = "0.1.0"
