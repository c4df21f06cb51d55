"""Exact invariants of theta dualities on moduli spaces of sheaves.

Verlinde numbers over curves, Mukai-pairing Euler characteristics over K3
and abelian surfaces, explicit duality pairing matrices on exterior and
symmetric powers, and theta-class bookkeeping on elliptic K3 surfaces,
all in exact arithmetic.

Importing the package loads none of its modules.  Each name below is
imported from its module on first access (PEP 562), so a CLI query loads
only what its subcommand runs, and ``from thetacalc import X`` works as
before.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cyclotomic": (
        "CycloElement",
        "cyclotomic_polynomial",
        "to_rational",
        "two_sin",
    ),
    "elliptic_k3": (
        "DualityDims",
        "NormalizedVector",
        "NuResult",
        "ThetaClass",
        "chi_of_vector",
        "chi_pair",
        "compute_nu",
        "normalize_vector",
        "normalized_vector",
        "ns_class",
        "strange_duality_dims",
        "theta_bundle_class",
    ),
    "errors": (
        "ArithmeticBugError",
        "DegenerateConfigError",
        "DivisibilityError",
        "DomainError",
        "LatticeMismatchError",
        "NotIntegralError",
        "NotRationalError",
        "NuTooWeakError",
        "TermBudgetError",
        "ThetaCalcError",
    ),
    "mukai": (
        "ConjectureVerdict",
        "MukaiVector",
        "NSClass",
        "NSLattice",
        "c1_proportional",
        "c1_tensor",
        "check_conjecture",
        "chi_abelian",
        "chi_k3",
        "chi_tensor",
        "dv",
        "fm_transform",
        "lattice_preset",
        "mukai_pairing",
    ),
    "power_duality": (
        "SymDualityMatrix",
        "WedgeMatrix",
        "sym_duality_matrix",
        "theta_vanishes",
        "wedge_duality_matrix",
    ),
    "verlinde": (
        "DEFAULT_TERM_BUDGET",
        "VerlindeQuery",
        "VerlindeReport",
        "check_rank_level_symmetry",
        "float_oracle",
        "modified_verlinde",
        "verlinde_number",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        # Plain AttributeError, so ``from thetacalc import cyclotomic`` falls
        # back to importing the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
