"""Exact arithmetic in cyclotomic fields Q(zeta_m) and their real subfields.

An element is a coordinate vector over a power basis, reduced modulo a
monic integer polynomial that its class supplies:

* ``CycloElement`` lives in Q(zeta_m), over 1, zeta, ..., zeta^(deg-1)
  modulo the m-th cyclotomic polynomial Phi_m; deg is the Euler totient
  of m.
* ``RealCycloElement`` lives in the real subfield Q(zeta_n)^+ = Q(theta),
  theta = 2*cos(2*pi/n), over 1, theta, ..., theta^(deg-1) modulo psi_n,
  the minimal polynomial of theta; deg is half the totient of n (1 for
  n <= 2).

Both share one multiply, reduce and power routine.  Coordinates are exact
rationals; integer coordinates are kept as Python ints, which is what
every root of unity and every sine value produces, so the hot
multiplication path never touches Fraction, and this module does not
import it.

The Verlinde sum needs the real quantities 4*sin^2(pi*d/n), which lie in
the real subfield: with D_d the Dickson polynomials (D_0 = 2, D_1 = x,
D_{j+1} = x*D_j - D_{j-1}, so that zeta^j + zeta^(-j) = D_j(theta)),

    4*sin^2(pi*d/n) = 2 - 2*cos(2*pi*d/n) = 2 - D_d(theta).

``two_sin`` gives 2*sin(pi*d/n) itself, which needs the larger field
Q(zeta_{4n}): with zeta = zeta_{4n} and i = zeta^n,

    2*sin(pi*d/n) = -i * (zeta^(2d) - zeta^(-2d)) = zeta^(3n+2d) + zeta^(n-2d),

which is totally real and positive for 1 <= d <= n-1.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Rational

from ._frozen import Frozen
from .errors import DomainError, NotRationalError


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


def _dickson(count: int) -> list[list[int]]:
    """D_0, ..., D_(count-1), constant term first: D_j(x + 1/x) = x^j + x^(-j)."""
    polys = [[2], [0, 1]]
    while len(polys) < count:
        nxt = [0] + polys[-1]
        for i, c in enumerate(polys[-2]):
            nxt[i] -= c
        polys.append(nxt)
    return polys[:count]


@lru_cache(maxsize=None)
def real_cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """psi_n, the minimal polynomial of 2*cos(2*pi/n), constant term first.

    For n >= 3, Phi_n is palindromic of degree 2m, so x^(-m) * Phi_n(x) =
    c_m + sum_{j=1..m} c_{m+j} * (x^j + x^(-j)), and substituting
    x^j + x^(-j) = D_j(x + 1/x) gives psi_n(x + 1/x): monic of degree m,
    integers throughout.  psi_2 = x + 2.
    """
    if n < 2:
        raise DomainError("real cyclotomic polynomial order must be >= 2")
    if n == 2:
        return (2, 1)
    phi = cyclotomic_polynomial(n)
    m = (len(phi) - 1) // 2
    psi = [phi[m]] + [0] * m
    for j, dickson in enumerate(_dickson(m + 1)[1:], start=1):
        for i, c in enumerate(dickson):
            psi[i] += phi[m + j] * c
    return tuple(psi)


@lru_cache(maxsize=None)
def _reduction_terms(modulus: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(j, c) for each non-zero coefficient c of x^j below the leading term."""
    return tuple((j, c) for j, c in enumerate(modulus[:-1]) if c)


def _reduced(modulus: tuple[int, ...], vec: list[Rational]) -> tuple[Rational, ...]:
    """Reduce a coefficient vector modulo a monic integer polynomial."""
    deg = len(modulus) - 1
    if len(vec) <= deg:
        return tuple(vec) + (0,) * (deg - len(vec))
    terms = _reduction_terms(modulus)
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            low = i - deg
            for j, mj in terms:
                vec[low + j] -= c * mj
    return tuple(vec[:deg])


class CycloElement(Frozen):
    """Immutable element of Q(zeta_m) in reduced power-basis coordinates.

    ``modulus(order)`` is the monic integer polynomial the coordinates are
    reduced by; a subclass supplies its own and shares all arithmetic.
    Elements of different classes or orders do not mix.
    """

    __slots__ = ("order", "coeffs")
    modulus = staticmethod(cyclotomic_polynomial)

    def __init__(self, order: int, coeffs: tuple[Rational, ...]):
        deg = len(self.modulus(order)) - 1
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
        return cls(order, _reduced(cls.modulus(order), list(coeffs)))

    @classmethod
    def zero(cls, order: int) -> "CycloElement":
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CycloElement":
        return cls.from_rational(order, 1)

    @classmethod
    def from_rational(cls, order: int, value: Rational) -> "CycloElement":
        return cls(order, (value,) + (0,) * (len(cls.modulus(order)) - 2))

    def _check_order(self, other: "CycloElement") -> None:
        if type(other) is not type(self):
            raise DomainError(
                f"cannot mix {type(self).__name__} and {type(other).__name__}"
            )
        if self.order != other.order:
            raise DomainError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, Rational):
            other = self.from_rational(self.order, other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        self._check_order(other)
        return type(self)(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, Rational):
            other = self.from_rational(self.order, other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CycloElement):
            if isinstance(other, Rational):
                return type(self)(self.order, tuple(a * other for a in self.coeffs))
            return NotImplemented
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        conv: list[Rational] = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return type(self)(self.order, _reduced(self.modulus(self.order), conv))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CycloElement":
        """Square and multiply, without the unit factor or a square past the top bit."""
        if exponent < 0:
            raise DomainError("negative powers are not supported")
        if exponent == 0:
            return self.one(self.order)
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base


class RealCycloElement(CycloElement):
    """Immutable element of Q(theta), theta = 2*cos(2*pi/n), over 1, theta, theta^2, ...

    The order is n; coordinates are reduced modulo psi_n.
    """

    __slots__ = ()
    modulus = staticmethod(real_cyclotomic_polynomial)


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
    a sum over subsets for a fixed n.
    """
    if not 1 <= d <= n - 1:
        raise DomainError(f"two_sin requires 1 <= d <= n-1, got d={d}, n={n}")
    m = 4 * n
    return root_of_unity(m, 3 * n + 2 * d) + root_of_unity(m, n - 2 * d)


def four_sin_squared(n: int, d: int) -> RealCycloElement:
    """The element of Q(2*cos(2*pi/n)) equal to 4*sin^2(pi*d/n) = 2 - D_d(theta), 1 <= d <= n-1."""
    if not 1 <= d <= n - 1:
        raise DomainError(f"four_sin_squared requires 1 <= d <= n-1, got d={d}, n={n}")
    poly = [-c for c in _dickson(d + 1)[d]]
    poly[0] += 2
    return RealCycloElement.from_polynomial(n, poly)


@lru_cache(maxsize=None)
def real_traces(n: int) -> tuple[int, ...]:
    """Tr(theta^j), j < deg, as traces of multiplication; Tr(x) is their dot product with x."""
    modulus = real_cyclotomic_polynomial(n)
    deg = len(modulus) - 1
    return tuple(
        sum(_reduced(modulus, [0] * (i + j) + [1])[i] for i in range(deg)) for j in range(deg)
    )


def to_rational(x: CycloElement) -> Rational:
    """Constant coefficient of an element all of whose other coefficients vanish.

    The coefficient is returned as it is stored: an int stays an int.

    Raises NotRationalError carrying the largest offending index otherwise;
    such a failure in a sum that must be rational is an implementation bug.
    """
    for i in range(len(x.coeffs) - 1, 0, -1):
        if x.coeffs[i] != 0:
            raise NotRationalError(x.order, i)
    return x.coeffs[0]
