"""Numerical bookkeeping for moduli of sheaves on an elliptic K3 surface.

The Neron-Severi lattice is generated by the section class sigma and the
fiber class f with sigma^2 = -2, f^2 = 0, sigma.f = 1.  All Mukai vectors
handled here have c1.f = 1 and are normalized, by twisting with the fiber
line bundle, so that their Euler characteristic is 1:

    v_{r,a} = (r, sigma + (a - r(r-1)) f, (1-r) omega),
    <v_{r,a}, v_{r,a}> = 2a - 2.

For a pair of normalized vectors of ranks r, s and half-dimensions a, b
the tensor product has Euler characteristic a+b-2 - (r+s)(r+s-2); one
fiber twist shifts it by r+s, so when (r+s) | (a+b-2) there is a unique
fiber-twist exponent nu with chi(E_r (x) F_s (x) O(nu f)) = 0.  The theta
line bundle on the rank-r side is induced by

    L = (r+s) * sigma + (2(r+s) - 2 - nu) * f,

and chi(L) = L^2/2 + 2 = a + b (an identity used as the internal oracle).
When nu < -1 the bundle L has no higher cohomology and the two spaces of
theta sections have dimensions C(chi(L), a) = C(chi(L), b).
"""

import math

from ._frozen import Frozen
from .errors import ArithmeticBugError, DivisibilityError, DomainError, NuTooWeakError
from .mukai import MukaiVector, NSClass, lattice_preset, mukai_pairing

_ELLIPTIC = lattice_preset("k3_elliptic")


def ns_class(sigma: int, fiber: int) -> NSClass:
    return _ELLIPTIC.cls(sigma, fiber)


def chi_of_vector(v: MukaiVector) -> int:
    """Euler characteristic of a K3 sheaf class: rank plus point coefficient."""
    return v.rank + v.point


class NormalizedVector(Frozen):
    """A chi = 1 Mukai vector (r, sigma + (a - r(r-1)) f, (1-r) omega)."""

    __slots__ = ("r", "a", "vector")

    def _validate(self) -> None:
        if self.r < 1:
            raise DomainError("rank must be >= 1")
        if self.a < 1:
            raise DomainError("half-dimension a must be >= 1")
        pairing = mukai_pairing(self.vector, self.vector)
        if pairing + 2 != 2 * self.a:
            raise DomainError(
                f"self-pairing {pairing} incompatible with half-dimension {self.a}"
            )
        if self.vector.c1.dot(ns_class(0, 1)) != 1:
            raise DomainError("c1 . f must equal 1")
        if chi_of_vector(self.vector) != 1:
            raise DomainError("normalized vectors must have Euler characteristic 1")


def normalized_vector(r: int, a: int) -> NormalizedVector:
    """The vector v_{r,a} itself."""
    if r < 1 or a < 1:
        raise DomainError("need r >= 1 and a >= 1")
    vec = MukaiVector(r, ns_class(1, a - r * (r - 1)), 1 - r)
    return NormalizedVector(r, a, vec)


def normalize_vector(r: int, c1_fiber_coeff: int, p: int) -> tuple[NormalizedVector, int]:
    """Normalize (r, sigma + k f, p omega) by fiber twists; returns (vector, twist count).

    Each twist by the fiber bundle sends k to k + r and p to p + 1, so
    t = (1 - r) - p twists (possibly negative) reach the chi = 1 form.
    The half-dimension a = k - r p is twist-invariant: it is read off the
    self-pairing, which fiber twisting preserves.
    """
    if r < 1:
        raise DomainError("rank must be >= 1")
    twists = (1 - r) - p
    a = c1_fiber_coeff - r * p
    return normalized_vector(r, a), twists


class NuResult(Frozen):
    """Fiber-twist exponent killing the Euler characteristic of a pair."""

    __slots__ = ("nu", "divisible", "nu_strong")


def _validate_pair(r: int, s: int, a: int, b: int) -> None:
    if r < 1 or s < 1 or a < 1 or b < 1:
        raise DomainError("need r, s, a, b all >= 1")


def compute_nu(r: int, s: int, a: int, b: int) -> NuResult:
    """nu = (r+s-2) - (a+b-2)/(r+s); requires (r+s) | (a+b-2).

    ``nu_strong`` records -nu > 1, equivalently a+b >= (r+s)^2 + 2, the
    condition under which the theta bundle class below has no higher
    cohomology.
    """
    _validate_pair(r, s, a, b)
    total = r + s
    if (a + b - 2) % total != 0:
        raise DivisibilityError(f"divisibility: {total} does not divide {a + b - 2}")
    nu = (total - 2) - (a + b - 2) // total
    return NuResult(nu=nu, divisible=True, nu_strong=-nu > 1)


def chi_pair(r: int, s: int, a: int, b: int) -> int:
    """chi of the tensor product of normalized vectors: a+b-2 - (r+s)(r+s-2)."""
    _validate_pair(r, s, a, b)
    return a + b - 2 - (r + s) * (r + s - 2)


class ThetaClass(Frozen):
    """Theta line bundle class on the Hilbert scheme side, as (L, M exponent), and its nu."""

    __slots__ = ("L", "m_exponent", "hilb_points", "chi", "nu")


def theta_bundle_class(r: int, s: int, a: int, b: int) -> ThetaClass:
    """L = (r+s) sigma + (2(r+s)-2-nu) f with unit exceptional part; needs r >= 2, s >= 1."""
    _validate_pair(r, s, a, b)
    if r < 2:
        raise DomainError("theta bundle class requires rank r >= 2")
    nu = compute_nu(r, s, a, b).nu
    total = r + s
    L = ns_class(total, 2 * total - 2 - nu)
    chi_L = L.self_intersection // 2 + 2
    if chi_L != a + b:
        raise ArithmeticBugError(f"chi(L) = {chi_L} differs from a+b = {a + b}")
    return ThetaClass(L=L, m_exponent=1, hilb_points=a, chi=chi_L, nu=nu)


class DualityDims(Frozen):
    """Dimensions of the dual spaces of theta sections, hypothesis flags and the theta class."""

    __slots__ = ("dim_a", "dim_b", "equal", "corollary_applies", "theta")


def strange_duality_dims(r: int, s: int, a: int, b: int) -> DualityDims:
    """Section counts C(chi(L), a) and C(chi(L), b) on the two Hilbert schemes.

    Requires nu < -1 so that L has no higher cohomology; raises
    NuTooWeakError otherwise.  ``corollary_applies`` records the
    rank-at-least-two and self-pairing-sum hypotheses of the duality
    statement for pairs of normalized vectors; nu < -1 is then already known.
    """
    theta = theta_bundle_class(r, s, a, b)
    if theta.nu >= -1:
        raise NuTooWeakError(
            f"nu too weak: nu = {theta.nu} >= -1 does not exclude higher cohomology"
        )
    dim_a = math.comb(theta.chi, a)
    dim_b = math.comb(theta.chi, b)
    applies = (
        r >= 2
        and s >= 2
        and (2 * a - 2) + (2 * b - 2) >= 2 * (r + s) ** 2
    )
    return DualityDims(
        dim_a=dim_a, dim_b=dim_b, equal=dim_a == dim_b, corollary_applies=applies, theta=theta
    )
