"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is a coordinate vector over the power basis 1, zeta, ...,
zeta^(deg-1) modulo the m-th cyclotomic polynomial, where deg is the
degree of that polynomial (the Euler totient of m).  Coordinates are
exact rationals; integer coordinates are kept as Python ints, which is
what every root of unity and every ``two_sin`` value produces, so the
hot multiplication path never touches Fraction.

The module provides just enough field arithmetic to multiply and add the
real quantities 2*sin(pi*d/n) and to extract the final rational value of
expressions that are guaranteed to be rational.  Each 2*sin(pi*d/n) is
represented inside Q(zeta_{4n}): with zeta = zeta_{4n} and i = zeta^n,

    2*sin(pi*d/n) = -i * (zeta^(2d) - zeta^(-2d)) = zeta^(3n+2d) + zeta^(n-2d),

which is totally real and positive for 1 <= d <= n-1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._frozen import Frozen
from .errors import DomainError, NotRationalError

Rational = int | Fraction


def _divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials; den must be monic."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise AssertionError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, constant term first.

    Computed by exact division of x^m - 1 by the cyclotomic polynomials of
    all proper divisors of m; no tables, integers throughout.
    """
    if m < 1:
        raise DomainError("cyclotomic polynomial order must be >= 1")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divexact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def field_degree(m: int) -> int:
    """Degree of Q(zeta_m) over Q, i.e. the Euler totient of m."""
    return len(cyclotomic_polynomial(m)) - 1


def _reduced(m: int, vec: list[Rational]) -> tuple[Rational, ...]:
    """Reduce a coefficient vector modulo the m-th cyclotomic polynomial."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    if len(vec) < deg:
        vec = vec + [0] * (deg - len(vec))
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            for j in range(deg):
                vec[i - deg + j] -= c * phi[j]
    return tuple(vec[:deg])


class CycloElement(Frozen):
    """Immutable element of Q(zeta_m) in reduced power-basis coordinates."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Rational, ...]):
        deg = field_degree(order)
        if len(coeffs) != deg:
            raise DomainError(
                f"coefficient vector has length {len(coeffs)}, "
                f"expected {deg} for order {order}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_polynomial(cls, order: int, coeffs) -> "CycloElement":
        """Build an element from an arbitrary-length coefficient vector, reducing it."""
        return cls(order, _reduced(order, list(coeffs)))

    @classmethod
    def zero(cls, order: int) -> "CycloElement":
        return cls(order, (0,) * field_degree(order))

    @classmethod
    def one(cls, order: int) -> "CycloElement":
        return cls.from_rational(order, 1)

    @classmethod
    def from_rational(cls, order: int, value: Rational) -> "CycloElement":
        deg = field_degree(order)
        return cls(order, (value,) + (0,) * (deg - 1))

    def _check_order(self, other: "CycloElement") -> None:
        if self.order != other.order:
            raise DomainError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElement.from_rational(self.order, other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        self._check_order(other)
        return CycloElement(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElement.from_rational(self.order, other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElement(self.order, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CycloElement):
            return NotImplemented
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        conv: list[Rational] = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycloElement(self.order, _reduced(self.order, conv))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CycloElement":
        if exponent < 0:
            raise DomainError("negative powers are not supported")
        result = CycloElement.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])


def root_of_unity(m: int, e: int) -> CycloElement:
    """zeta_m^e, reduced; the exponent is taken modulo m."""
    if m < 1:
        raise DomainError("root-of-unity order must be >= 1")
    e %= m
    return CycloElement.from_polynomial(m, [0] * e + [1])


@lru_cache(maxsize=None)
def two_sin(n: int, d: int) -> CycloElement:
    """The element of Q(zeta_{4n}) equal to 2*sin(pi*d/n), for 1 <= d <= n-1.

    Memoized: the same sine factors are reused across every subset term of
    the rank-level sum for a fixed n.
    """
    if not 1 <= d <= n - 1:
        raise DomainError(f"two_sin requires 1 <= d <= n-1, got d={d}, n={n}")
    m = 4 * n
    return root_of_unity(m, 3 * n + 2 * d) + root_of_unity(m, n - 2 * d)


def to_rational(x: CycloElement) -> Fraction:
    """Constant coefficient of an element all of whose other coefficients vanish.

    Raises NotRationalError carrying the largest offending index otherwise;
    such a failure in a sum that must be rational is an implementation bug.
    """
    for i in range(len(x.coeffs) - 1, 0, -1):
        if x.coeffs[i] != 0:
            raise NotRationalError(x.order, i)
    return Fraction(x.coeffs[0])
