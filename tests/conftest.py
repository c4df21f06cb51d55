from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

import mpmath
import pytest

from thetacalc.verlinde import VerlindeQuery, verlinde_number

GRID_SUM_MAX = 10
GRID_GENERA = tuple(range(2, 6))


def subsets_colex(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {1..n} in colexicographic order, as ascending tuples.

    The colex oracle of the tests, independent of the bitmask order the
    package uses.  Colex order compares subsets by their largest members
    first.  Drawn from (n, n-1, ..., 1), combinations come as descending
    tuples in the reverse of that order, so reversing both gives colex
    without a sort.
    """
    return tuple(s[::-1] for s in reversed(list(combinations(range(n, 0, -1), k))))


def dyadic(value: tuple[int, int]) -> Fraction:
    """The exact value m * 2^e of a float-oracle result (m, e)."""
    m, e = value
    return m * Fraction(2) ** e


def evaluation_covector(point, model) -> tuple[Fraction, ...]:
    """Values of the model monomials x^ex * y^ey at a point (x, y) of Fractions.

    The oracle of the theta rows, which scale these values to integers.
    """
    x, y = point
    return tuple(x**ex * y**ey for ex, ey in model)


def mpmath_float_oracle(query: VerlindeQuery, precision: int = 30):
    """The float oracle as it was written with mpmath, now the reference of the integer one.

    The same unreduced sum over all C(r+k, k) subsets with the plain
    distances |s-t|, each sine from mpmath.sinpi at `precision` digits.
    """
    r, k, g = query.rank, query.level, query.genus
    n = r + k
    universe = range(1, n + 1)
    with mpmath.workdps(precision):
        sines = {d: 2 * mpmath.sinpi(mpmath.mpf(d) / n) for d in range(1, n)}
        total = mpmath.mpf(0)
        for subset in combinations(universe, k):
            inside = set(subset)
            term = mpmath.mpf(1)
            for s in subset:
                for t in universe:
                    if t not in inside:
                        term *= sines[abs(s - t)]
            total += term ** (g - 1)
        return total * mpmath.mpf(r) ** g / mpmath.mpf(n) ** g


def level_one_oracle(rank: int, genus: int) -> int:
    """The level-1 Verlinde number r^g.

    The SU(r) level-1 fusion ring is the group ring of Z/r: r weights, each
    with S_(0,lambda) = r^(-1/2), so the sum of S_(0,lambda)^(2-2g) is r^g.
    """
    return rank**genus


@lru_cache(maxsize=None)
def _gl_weights(shape: tuple[int, ...]) -> Counter[tuple[int, ...]]:
    """Weights of the GL(r) module of highest weight ``shape``, r = len(shape), with multiplicities.

    These are the contents of the semistandard tableaux of that shape,
    counted through Gelfand-Tsetlin patterns: the module restricts to
    GL(r-1) as the sum over the shapes that interlace ``shape``, and the
    last entry of a weight is what the inner shape leaves of |shape|.
    """
    if len(shape) == 1:
        return Counter({shape: 1})
    weights: Counter[tuple[int, ...]] = Counter()
    for inner in product(*(range(shape[i + 1], shape[i] + 1) for i in range(len(shape) - 1))):
        last = sum(shape) - sum(inner)
        for weight, multiplicity in _gl_weights(inner).items():
            weights[weight + (last,)] += multiplicity
    return weights


def _to_alcove(beta: list[int], n: int) -> tuple[int, tuple[int, ...] | None]:
    """(sign, weight) of the affine Weyl image of a rho-shifted weight in the level alcove.

    The affine Weyl group of SU(r) at shifted level n acts on beta by
    permutations and by the reflection beta_1 - beta_r -> 2n - (beta_1 -
    beta_r).  Returns (0, None) for a weight on a wall, otherwise the
    image's highest weight as a partition ending in 0, with the sign of the
    Weyl element.
    """
    sign = 1
    while True:
        for i, b in enumerate(beta):
            for c in beta[i + 1 :]:
                if b == c:
                    return 0, None
                if b < c:
                    sign = -sign
        beta = sorted(beta, reverse=True)
        spread = beta[0] - beta[-1]
        if spread == n:
            return 0, None
        if spread < n:
            return sign, tuple(b - beta[-1] - (len(beta) - 1 - i) for i, b in enumerate(beta))
        beta[0], beta[-1] = beta[-1] + n, beta[0] - n
        sign = -sign


@lru_cache(maxsize=None)
def _fusion_omega(r: int, k: int) -> list[list[int]]:
    """Omega = sum over mu of N_mu N_mu^T in the SU(r) level-k fusion ring, integers only.

    The level-k weights are the partitions with r parts, last part 0 and
    first part <= k: C(r+k-1, r-1) of them.  (N_mu)_{lambda,nu} is the
    Kac-Walton fusion coefficient: the Racah-Speiser sum over the weights
    eta of V_mu of lambda + eta + rho, each moved into the alcove at shifted
    level r+k with its sign.
    """
    weights = [
        (*sorted(parts, reverse=True), 0)
        for parts in combinations_with_replacement(range(k + 1), r - 1)
    ]
    index = {weight: i for i, weight in enumerate(weights)}
    rho = range(r - 1, -1, -1)
    size = len(weights)
    omega = [[0] * size for _ in range(size)]
    for mu in weights:
        fusion = [[0] * size for _ in range(size)]
        for eta, multiplicity in _gl_weights(mu).items():
            for i, lam in enumerate(weights):
                sign, nu = _to_alcove([a + b + c for a, b, c in zip(lam, eta, rho)], r + k)
                if sign:
                    fusion[i][index[nu]] += sign * multiplicity
        for i in range(size):
            for j in range(size):
                omega[i][j] += sum(a * b for a, b in zip(fusion[i], fusion[j]))
    return omega


def fusion_count(r: int, k: int, g: int) -> int:
    """V_g = Tr(Omega^(g-1)) for SU(r) at level k: shares nothing with the trigonometric sum."""
    omega = _fusion_omega(r, k)
    size = range(len(omega))
    power = [[int(i == j) for j in size] for i in size]
    for _ in range(g - 1):
        power = [[sum(power[i][m] * omega[m][j] for m in size) for j in size] for i in size]
    return sum(power[i][i] for i in size)


# (r, g) whose v_{r,k}, as a polynomial in the level k, the level-polynomial laws check.
LEVEL_LAW_CASES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))


def level_differences(r: int, g: int) -> tuple[int, list[list[int]]]:
    """D = (r^2-1)(g-1) and the forward differences of v_{r,k} over k = 1..D+3, row j the j-th."""
    degree = (r * r - 1) * (g - 1)
    rows = [[verlinde_number(VerlindeQuery(r, k, g)) for k in range(1, degree + 4)]]
    while len(rows[-1]) > 1:
        rows.append([b - a for a, b in zip(rows[-1], rows[-1][1:])])
    return degree, rows


def _binomial(y: int, j: int) -> int:
    """C(y, j) for any integer y: j consecutive integers over j!, which divides them."""
    return math.prod(range(y - j + 1, y + 1)) // math.factorial(j)


def level_polynomial(rows: list[list[int]], degree: int, x: int) -> int:
    """P(x) from the differences at k = 1 of `level_differences`, by Newton's forward form."""
    return sum(row[0] * _binomial(x - 1, j) for j, row in enumerate(rows[: degree + 1]))


@pytest.fixture(scope="session")
def verlinde_grid() -> dict[tuple[int, int, int], int]:
    """All v_{r,k} with r+k <= 10 and 2 <= g <= 5, computed once per session."""
    values = {}
    for n in range(2, GRID_SUM_MAX + 1):
        for r in range(1, n):
            for g in GRID_GENERA:
                values[(r, n - r, g)] = verlinde_number(VerlindeQuery(r, n - r, g))
    return values
