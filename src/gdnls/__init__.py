"""Solitary waves, variational levels, and certified global evolution for the
generalized derivative nonlinear Schrodinger equation

    i u_t + u_xx + i |u|^(2 sigma) u_x = 0

on a periodic box, with the machinery to decide when initial data sits in the
flow-invariant set that guarantees a global H^1 solution.
"""

from .core import (
    Field,
    Grid,
    Params,
    cumulative_integral,
    is_grid_compatible,
    load_field,
    modulate,
    require_admissible,
    save_field,
    spectral_derivative,
    validate_params,
)
from .criterion import (
    Certificate,
    Membership,
    NotFound,
    SearchConfig,
    certify_global,
    corollary15_data,
    guo_wu_bound,
    guo_wu_bound_values,
    membership,
)
from .errors import (
    BadExponents,
    BoundaryProximity,
    GdnlsError,
    Inapplicable,
    IncompatibleModulation,
    NoBracket,
    NotAdmissible,
    NotProjectable,
    Overflow,
    QuadratureFailure,
    SigmaUnsupported,
    ZeroField,
)
from .evolve import (
    DiagnosticsRecord,
    InvarianceReport,
    SchemeConfig,
    Trajectory,
    integrate,
    invariance_check,
    write_trajectory_csv,
)
from .functionals import (
    GNReport,
    IdentityReport,
    Moments,
    TildeValues,
    action_S,
    agmon_ratio,
    calE,
    calP,
    energy,
    gauge_from_w,
    gauge_to_w,
    gn_checks,
    gn1_ratio,
    gn2_ratio,
    gw_momentum_floor,
    identity_suite,
    I_functional,
    mass,
    moments,
    momentum,
    nonlinear_N,
    tilde_functionals,
    virial_K,
)
from .variational import (
    MinimizeConfig,
    MuEstimate,
    estimate_mu,
    homogeneity_split,
    modulus_alignment_error,
    mu_reference,
)
from .waves import (
    ClosedFormInvariants,
    F_sigma,
    SolitonSpec,
    closed_form_invariants,
    elliptic_residual,
    first_integral_residual,
    profile_Phi,
    profile_phi,
    traveling_wave,
    z0_root,
)

__all__ = [name for name in dir() if not name.startswith("_")]
