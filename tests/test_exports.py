"""The package namespace is the union of its modules' export lists."""

import importlib

import gdnls

MODULES = ("core", "criterion", "errors", "evolve", "functionals", "variational", "waves")

# every name the package exported when it still listed its imports by hand
EXPORTED_BEFORE = {
    "BadExponents", "BoundaryProximity", "Certificate", "ClosedFormInvariants",
    "DiagnosticsRecord", "F_sigma", "Field", "GdnlsError", "Grid",
    "IdentityReport", "IncompatibleModulation", "InvarianceReport",
    "Membership", "MinimizeConfig", "Moments", "MuEstimate", "NoBracket", "NotAdmissible",
    "NotFound", "NotProjectable", "Params", "SchemeConfig",
    "SearchConfig", "SigmaUnsupported", "SolitonSpec", "TildeValues", "Trajectory",
    "ZeroField", "action_S", "certify_global", "closed_form_invariants",
    "core", "corollary15_data", "criterion", "elliptic_residual", "energy", "errors",
    "estimate_mu", "evolve", "functionals", "gn1_ratio", "gn2_ratio",
    "homogeneity_split", "identity_suite",
    "integrate", "invariance_check", "is_grid_compatible", "load_field", "mass",
    "membership", "modulate", "moments", "momentum",
    "mu_reference", "nonlinear_N", "profile_Phi", "profile_phi", "require_admissible",
    "save_field", "spectral_derivative", "tilde_functionals", "traveling_wave",
    "validate_params", "variational", "virial_K", "waves", "write_trajectory_csv", "z0_root",
}

# names deleted on purpose because nothing outside their own tests called them:
# the sigma = 1 gauge frame, the companion virial form, the antiderivative behind
# the gauge phase, the pointwise first integral of the profile equation, the
# translation-aligned modulus error (now a test helper), the quadrature error,
# which nothing raises since J_nu became a closed form, the step overflow error,
# which integrate caught before any caller could see it, the GN-ratio bundle,
# whose one caller read only gn1 (gn1_ratio and gn2_ratio stay exported on their
# own), the Agmon ratio, which only its own tests called, and the Guo-Wu gradient
# bound with its error, a looser duplicate of the bound invariance_check reads
# off a negative-momentum certificate
RETIRED = {
    "I_functional", "gauge_to_w", "gauge_from_w", "calE", "calP", "gw_momentum_floor",
    "cumulative_integral", "first_integral_residual", "modulus_alignment_error",
    "QuadratureFailure", "Overflow", "gn_checks", "GNReport", "agmon_ratio",
    "guo_wu_bound", "guo_wu_bound_values", "Inapplicable",
}


def test_package_exports_every_module_list():
    exported = set(gdnls.__all__)
    for name in MODULES:
        mod = importlib.import_module(f"gdnls.{name}")
        public = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
        assert set(public) <= exported, name
        for attr in public:
            assert getattr(gdnls, attr) is getattr(mod, attr)


def test_package_keeps_every_earlier_export():
    assert EXPORTED_BEFORE <= set(gdnls.__all__)
    for name in EXPORTED_BEFORE:
        assert hasattr(gdnls, name), name


def test_retired_names_stay_retired():
    assert not RETIRED & EXPORTED_BEFORE
    assert not RETIRED & set(gdnls.__all__)
