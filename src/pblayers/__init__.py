"""Boundary-layer asymptotics for Poisson-Boltzmann type equations under
Robin boundary conditions, with a brute-force radial oracle for
verification."""

from .ccpb import CcpbConstants, bulk_expansion, ccpb_constants, compute_mhat, compute_q, solve_phi0
from .geometry import BoundaryComponent, DomainSpec, RegionParams, make_annulus, make_ball, make_disk
from .nonlinearity import (
    IonSpecies,
    Nonlinearity,
    decay_rate,
    find_reference_potential,
    make_classical_pb,
    make_custom,
    make_f0,
    make_f1,
    make_fhat1,
    symmetric_salt,
)
from .profiles import (
    Profile,
    RobinData,
    Tail,
    boundary_potential,
    ode_residual,
    profile_eval,
    solve_theta,
    solve_u,
    solve_v,
    solve_w,
)
from .asymptotics import (
    ExpansionQuery,
    LayerSample,
    RegionChargeReport,
    region_charge,
    sample,
)
from .radial_oracle import (
    ExpansionErrorReport,
    RadialSolveResult,
    band_charge_integral,
    compare_expansion,
    solve_radial_ccpb,
    solve_radial_robin_pb,
    stretched_layers,
)

__version__ = "0.1.0"
