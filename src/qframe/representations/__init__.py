"""Factories for concrete quasi-probability representations."""

from .base import Representation, striation_pvms
from .wootters import wootters, wootters_composite
from .ghw import (
    ghw,
    match_phase_points,
    wootters_aligned_net,
)
from .cohendet import (
    cohendet,
    extended_distribution,
    from_extended,
)
from .leonhardt import leonhardt
from .ruzzi import ruzzi_s0
from .mub import (
    MubFamily,
    mub_bases,
    mub_family,
    mub_reconstruct,
    mub_table,
    mub_transition,
    mub_unitary,
)
from .hardy import hardy_rep
from .havel import (
    havel_rep,
    real_density_matrix,
    reconstruct_from_real,
)
from .sic import (
    overlap_deviation,
    sic_born,
    sic_conditional,
    sic_fiducial,
    sic_rep,
)
from .spherical import (
    SphericalKernel,
    clebsch_gordan,
    direction_basis,
    fibonacci_sphere,
    kernel_weights,
    nmr_sample_directions,
    qubit_kernel_lower,
    qubit_kernel_upper,
    random_constellation,
    sphere_quadrature,
    spin_operators,
    stratonovich_discrete,
    tetrahedral_constellation,
)

__all__ = [
    "Representation",
    "striation_pvms",
    "wootters",
    "wootters_composite",
    "ghw",
    "match_phase_points",
    "wootters_aligned_net",
    "cohendet",
    "extended_distribution",
    "from_extended",
    "leonhardt",
    "ruzzi_s0",
    "hardy_rep",
    "havel_rep",
    "real_density_matrix",
    "reconstruct_from_real",
    "overlap_deviation",
    "sic_born",
    "sic_conditional",
    "sic_fiducial",
    "sic_rep",
    "MubFamily",
    "mub_bases",
    "mub_family",
    "mub_reconstruct",
    "mub_table",
    "mub_transition",
    "mub_unitary",
    "SphericalKernel",
    "clebsch_gordan",
    "direction_basis",
    "fibonacci_sphere",
    "kernel_weights",
    "nmr_sample_directions",
    "qubit_kernel_lower",
    "qubit_kernel_upper",
    "random_constellation",
    "sphere_quadrature",
    "spin_operators",
    "stratonovich_discrete",
    "tetrahedral_constellation",
]
