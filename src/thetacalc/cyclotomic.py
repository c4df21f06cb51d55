"""Exact arithmetic in the real cyclotomic fields Q(theta), theta = 2*cos(2*pi/n).

An element is a coordinate vector over 1, theta, ..., theta^(deg-1),
reduced modulo psi_n, the minimal polynomial of theta, which is derived
from the cyclotomic polynomial Phi_n; deg is half the Euler totient of n
(1 for n <= 2).  Coordinates are exact rationals, kept as Python ints where
they are integers, as every sine and cosine value is, so the hot multiply
never touches Fraction, and this module does not import it.

With D_j the Dickson polynomials (D_0 = 2, D_1 = x, D_{j+1} = x*D_j - D_{j-1},
so that D_j(2*cos(t)) = 2*cos(j*t)), the sines of the Verlinde sum are

    4*sin^2(pi*d/n) = 2 - D_d(theta_n)                          (four_sin_squared),
    2*sin(pi*d/n)   = 2*cos(2*pi*(n-2d)/(4n)) = D_|n-2d|(theta_{4n})   (two_sin),

both totally real and positive for 1 <= d <= n-1.
"""

from functools import lru_cache

from ._frozen import Frozen
from .errors import ArithmeticBugError, DomainError, NotRationalError

# __mul__ imports Rational only for a scalar that is not an int, so that the
# Verlinde path does not load numbers.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from numbers import Rational


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
        raise ArithmeticBugError("polynomial division left a remainder")
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
def _reduction_terms(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The degree of psi_order, and (j, c) for each non-zero c x^j below its leading term."""
    modulus = real_cyclotomic_polynomial(order)
    return len(modulus) - 1, tuple((j, c) for j, c in enumerate(modulus[:-1]) if c)


def _reduced(order: int, vec: "list[Rational]") -> "tuple[Rational, ...]":
    """Reduce a coefficient vector modulo psi_order, the only reduction routine."""
    deg, terms = _reduction_terms(order)
    if len(vec) <= deg:
        return tuple(vec) + (0,) * (deg - len(vec))
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            low = i - deg
            for j, mj in terms:
                vec[low + j] -= c * mj
    return tuple(vec[:deg])


class CycloElement(Frozen):
    """Immutable element of Q(theta), theta = 2*cos(2*pi/n), over 1, theta, theta^2, ...

    The order is n; coordinates are reduced modulo psi_n.  Elements of
    different orders do not mix.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: "tuple[Rational, ...]"):
        deg = len(real_cyclotomic_polynomial(order)) - 1
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
    def one(cls, order: int) -> "CycloElement":
        return cls(order, (1,) + (0,) * (len(real_cyclotomic_polynomial(order)) - 2))

    def __mul__(self, other):
        if not isinstance(other, CycloElement):
            if not isinstance(other, int):
                from numbers import Rational

                if not isinstance(other, Rational):
                    return NotImplemented
            return CycloElement(self.order, tuple(a * other for a in self.coeffs))
        order = self.order
        if order != other.order:
            raise DomainError(f"order mismatch: {order} vs {other.order}")
        a, b = self.coeffs, other.coeffs
        conv = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    conv[j] += ai * bj
        # The reduced product has the right length: skip the constructor's check.
        product = object.__new__(CycloElement)
        _set_order(product, order)
        _set_coeffs(product, _reduced(order, conv))
        return product

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


# The slot setters, which bypass Frozen's refusal of assignment.
_set_order = CycloElement.order.__set__
_set_coeffs = CycloElement.coeffs.__set__


@lru_cache(maxsize=None)
def two_sin(n: int, d: int) -> CycloElement:
    """The element D_|n-2d|(theta_{4n}) equal to 2*sin(pi*d/n), for 1 <= d <= n-1.

    Memoized: the same sine factors are reused across every subset term of
    a sum over subsets for a fixed n.
    """
    if not 1 <= d <= n - 1:
        raise DomainError(f"two_sin requires 1 <= d <= n-1, got d={d}, n={n}")
    j = abs(n - 2 * d)
    return CycloElement.from_polynomial(4 * n, _dickson(j + 1)[j])


def four_sin_squared(n: int, d: int) -> CycloElement:
    """The element of Q(2*cos(2*pi/n)) equal to 4*sin^2(pi*d/n) = 2 - D_d(theta), 1 <= d <= n-1."""
    if not 1 <= d <= n - 1:
        raise DomainError(f"four_sin_squared requires 1 <= d <= n-1, got d={d}, n={n}")
    poly = [-c for c in _dickson(d + 1)[d]]
    poly[0] += 2
    return CycloElement.from_polynomial(n, poly)


@lru_cache(maxsize=None)
def real_traces(n: int) -> tuple[int, ...]:
    """Tr(theta^s) for s <= 2*deg - 2, as traces of multiplication by theta^s.

    The s-th is the sum over i < deg of coefficient i of theta^(s+i).  Tr(x)
    is the dot product of x with the first deg of them, and Tr(x*y) is a
    quadratic form in x and y over all of them (`trace_of_product`).
    """
    deg = _reduction_terms(n)[0]
    powers = [_reduced(n, [0] * t + [1]) for t in range(3 * deg - 2)]
    return tuple(sum(powers[s + i][i] for i in range(deg)) for s in range(2 * deg - 1))


def trace_of_product(x: CycloElement, y: CycloElement) -> "Rational":
    """Tr(x*y) without the product: the sum of x_i * y_j * Tr(theta^(i+j)) over i, j < deg.

    Every Tr(theta^s) is a small integer, so this takes deg^2 products of a
    coordinate by a trace and deg of two coordinates, where the product
    takes deg^2 of two coordinates and a reduction.
    """
    if x.order != y.order:
        raise DomainError(f"order mismatch: {x.order} vs {y.order}")
    traces = real_traces(x.order)
    ys = y.coeffs
    return sum(xi * sum(c * t for c, t in zip(ys, traces[i:])) for i, xi in enumerate(x.coeffs))


def to_rational(x: CycloElement) -> "Rational":
    """Constant coefficient of an element all of whose other coefficients vanish.

    The coefficient is returned as it is stored: an int stays an int.

    Raises NotRationalError carrying the largest offending index otherwise;
    such a failure in a sum that must be rational is an implementation bug.
    """
    for i in range(len(x.coeffs) - 1, 0, -1):
        if x.coeffs[i] != 0:
            raise NotRationalError(x.order, i)
    return x.coeffs[0]
