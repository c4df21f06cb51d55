"""Duality pairings on exterior and symmetric powers, with a point oracle.

The wedge pairing sends a k-subset basis vector e_S and an (n-k)-subset
basis vector e_T to the coefficient of e_{1..n} in e_S ^ e_T: zero unless
T is the complement of S, and then the sign of the shuffle permutation
merging S and T.  The resulting matrix is a signed permutation, hence the
pairing is a perfect duality between the k-th and (n-k)-th exterior powers.

The point oracle models an n-dimensional space of sections as bivariate
monomials over exact rationals.  For point sets Z (k points) and W (n-k
points) the theta locus "some section vanishes on all of Z union W" is
detected by the vanishing of the n x n evaluation determinant, which by
Laplace expansion along the first k rows equals the wedge pairing of the
wedged evaluation covectors of Z and W.

Subset and monomial indices are frozen so matrices are reproducible
byte-for-byte: subsets in colexicographic order, the numeric order of
their bitmasks (``_colex_masks``), and exponents in descending-lexicographic
order.  A wedge matrix is stored as its signs alone, row i paired with
column C(n,k)-1-i; the Sym^n pairing is diagonal in monomial bases.
"""

from __future__ import annotations

import math
import re

from ._frozen import Frozen
from .errors import ArithmeticBugError, DegenerateConfigError, DomainError

# The functions that build rationals import Fraction, so that the wedge and
# sym paths load neither fractions nor the decimal and numbers it imports.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


def _colex_masks(n: int, k: int):
    """The k-subsets of {1..n} as bitmasks (bit j-1 for member j), in colex order.

    Colex order is the numeric order of the masks.  Gosper's step gives the
    next larger mask with k bits: add the lowest set bit, which clears the
    lowest run of ones and sets the bit above it, then put back the rest of
    that run at the bottom.
    """
    if k == 0:
        yield 0
        return
    mask, end = (1 << k) - 1, 1 << n
    while mask < end:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


class WedgeMatrix(Frozen):
    """Signed-permutation matrix of the pairing between complementary exterior powers.

    Rows are indexed by k-subsets, columns by (n-k)-subsets, both in colex
    order (``_colex_masks``).  Row i has its unique non-zero entry
    ``signs[i]`` in column size-1-i, the complement of the i-th row subset:
    colex order of subsets is the numeric order of their bitmasks, and the
    complement mask (2^n - 1) - mask reverses that order.
    """

    __slots__ = ("n", "k", "signs")

    @property
    def size(self) -> int:
        return len(self.signs)

    def determinant(self) -> int:
        """Exact determinant: the sign of the reversal times the product of entry signs.

        Reversing N indices takes floor(N/2) transpositions.
        """
        return -1 if (self.size // 2 + self.signs.count(-1)) % 2 else 1


def wedge_duality_matrix(n: int, k: int) -> WedgeMatrix:
    """Matrix of e_S (x) e_T -> coefficient of e_{1..n} in e_S ^ e_T.

    The coefficient is the sign of the shuffle (S ascending, T ascending),
    (-1)^(sum(S) - k(k+1)/2): the i-th smallest member s of S jumps over
    s - i members of T.  The signs in colex order are built without
    listing a subset, for the smaller side k' = min(k, n-k).  The
    j-subsets with largest member m are the (j-1)-subsets of {1..m-1}
    followed by m; adding m raises the sum by m and j(j+1)/2 by j, so
    their block is the first C(m-1, j-1) signs of the (j-1)-subsets times
    (-1)^(m-j).  Level j of the loop holds the j-subsets of {1..n-k'+j},
    so there are C(n+1, k') <= 2 C(n, k) signs over all levels.  For
    k > n-k, row i is the complement of row C(n,k)-1-i of the (n-k)-side,
    and swapping the two blocks of a shuffle multiplies its sign by
    (-1)^(k(n-k)).
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    small = min(k, n - k)
    signs = [1]
    for j in range(1, small + 1):
        flipped = [-s for s in signs]
        level = []
        for m in range(j, n - small + j + 1):
            level += (flipped if (m - j) % 2 else signs)[: math.comb(m - 1, j - 1)]
        signs = level
    if small < k:
        signs = [-s for s in reversed(signs)] if k * (n - k) % 2 else signs[::-1]
    return WedgeMatrix(n, k, tuple(signs))


def pair_wedge(n: int, k: int, alpha, beta) -> Fraction:
    """Coefficient of e_{1..n} in alpha ^ beta for coefficient vectors in colex order."""
    from fractions import Fraction
    signs = wedge_duality_matrix(n, k).signs
    size = len(signs)  # = C(n, k) = C(n, n-k), the length of beta as well
    if len(alpha) != size or len(beta) != size:
        raise DomainError(f"expected coefficient vectors of lengths {size} and {size}")
    total = Fraction(0)
    for a, s, b in zip(alpha, signs, reversed(beta)):
        if a:
            total += a * s * b
    return total


def evaluation_covector(point, model) -> tuple[int | Fraction, ...]:
    """Values of the model monomials x^ex * y^ey at a point (x, y)."""
    x, y = point
    return tuple(x**ex * y**ey for ex, ey in model)


def _integer_rows(rows) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators.

    Returns the integer rows and the product of the scales, so that any
    multilinear function of the rows equals its value on the integer rows
    divided by that product.
    """
    from fractions import Fraction
    int_rows = []
    scale = 1
    for row in rows:
        fracs = [Fraction(x) for x in row]
        lcm = math.lcm(*(f.denominator for f in fracs))
        int_rows.append([f.numerator * (lcm // f.denominator) for f in fracs])
        scale *= lcm
    return int_rows, scale


def det_exact(rows) -> Fraction:
    """Determinant over the rationals by fraction-free Bareiss elimination.

    Each row is first scaled to integers by the lcm of its denominators.
    Bareiss elimination (Math. Comp. 22, 1968) then keeps every entry an
    integer: after step c each remaining entry is a (c+2)-minor of the
    row-swapped integer matrix, so each update divides exactly by the
    previous pivot.  The cost is O(n^3) integer operations on numbers
    bounded by Hadamard's bound for the determinant.  A remainder in one of
    those divisions is an ArithmeticBugError.
    """
    from fractions import Fraction
    m, scale = _integer_rows(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top = m[col]
        p = top[col]
        for row in m[col + 1 :]:
            lead = row[col]
            for c in range(col + 1, n):
                value, remainder = divmod(p * row[c] - lead * top[c], prev)
                if remainder:
                    raise ArithmeticBugError(
                        f"Bareiss step {col}: {prev} does not divide an updated entry"
                    )
                row[c] = value
        prev = p
    return Fraction(sign * prev, scale)


def _reduced_rows(vectors) -> tuple[list[list[Fraction]], Fraction]:
    """Reduced row echelon form R of the rows, and f with wedge(rows) = f * wedge(R).

    Swaps flip the sign of the wedge, adding a multiple of one row to
    another keeps it, and dividing a row by its pivot divides it by the
    pivot.  So f is the signed product of the pivots, and f = 0 (with R
    not fully reduced) when the rows are linearly dependent.
    """
    from fractions import Fraction
    rows = [[Fraction(x) for x in vec] for vec in vectors]
    factor = Fraction(1)
    col = 0
    for i in range(len(rows)):
        pivot = None
        while pivot is None:
            if col == len(rows[i]):
                return rows, Fraction(0)
            pivot = next((r for r in range(i, len(rows)) if rows[r][col]), None)
            if pivot is None:
                col += 1
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            factor = -factor
        p = rows[i][col]
        factor *= p
        top = rows[i] = [x / p for x in rows[i]]
        for r, row in enumerate(rows):
            lead = row[col]
            if r != i and lead:
                rows[r] = [x - lead * t for x, t in zip(row, top)]
        col += 1
    return rows, factor


def wedge_coefficients(vectors, n: int, k: int) -> tuple[Fraction, ...]:
    """Coefficients over colex k-subsets of the wedge of k covectors in Q^n.

    The rows are first brought to reduced row echelon form (``_reduced_rows``),
    which changes the wedge only by a known factor.  A reduced row is e_p plus
    entries in the n - k non-pivot columns, so after i rows every term is an
    i-subset of i pivots and those n - k columns.  The wedge is then built
    one row at a time in the exterior algebra, with subsets as bitmasks
    (bit j-1 for member j): e_T ^ e_j is (-1)^#{t in T : t > j} e_{T u {j}}
    for j not in T, over rows scaled to integers (see ``_integer_rows``).
    Every intermediate layer has at most C(n,k) terms, so the cost is at
    most k * (n-k+1) * C(n,k) integer products plus O(k^2 n) rational
    operations for the reduction, in place of C(n,k) separate k x k
    eliminations.
    """
    from fractions import Fraction
    if len(vectors) != k:
        raise DomainError(f"expected {k} covectors, got {len(vectors)}")
    if k > n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    if any(len(vec) != n for vec in vectors):
        raise DomainError(f"covectors must have length {n}")
    reduced, factor = _reduced_rows(vectors)
    if not factor:
        return (Fraction(0),) * math.comb(n, k)
    int_rows, scale = _integer_rows(reduced)
    factor /= scale
    wedge = {0: 1}
    for row in int_rows:
        entries = [(j, 1 << j, v) for j, v in enumerate(row) if v]
        step: dict[int, int] = {}
        for mask, coeff in wedge.items():
            for j, bit, v in entries:
                if mask & bit:
                    continue
                term = coeff * v
                if (mask >> (j + 1)).bit_count() & 1:
                    term = -term
                key = mask | bit
                step[key] = step.get(key, 0) + term
        wedge = step
    return tuple(wedge.get(mask, 0) * factor for mask in _colex_masks(n, k))


def parse_model(data) -> tuple[tuple[int, int], ...]:
    """Exponent pairs (ex, ey) of the monomials x^ex * y^ey from JSON.

    Each pair must hold two integers, negative (Laurent) exponents
    included; a float, a boolean or a string raises DomainError rather
    than being truncated or read as a number.
    """
    model = []
    for pair in data:
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(type(e) is int for e in pair)
        ):
            raise DomainError(f"model entry {pair!r} is not a pair of integer exponents")
        model.append(tuple(pair))
    return tuple(model)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_point(pair) -> tuple[Fraction, Fraction]:
    """A point from JSON, each coordinate an integer or a rational string "p/q".

    Nothing else is accepted: exponent and decimal notation would let a
    few characters stand for a number of millions of digits.
    """
    from fractions import Fraction
    x, y = pair
    for c in (x, y):
        if isinstance(c, bool) or not (
            isinstance(c, int) or (isinstance(c, str) and _RATIONAL.fullmatch(c))
        ):
            raise DomainError(f"coordinate {c!r} is not an integer or a string 'p/q'")
    try:
        return Fraction(x), Fraction(y)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in point {pair!r}") from None


def theta_rows(z_points, w_points, model) -> list[list[int | Fraction]]:
    """Evaluation matrix of Z followed by W, after checking the configuration.

    Raises DomainError unless |Z| + |W| equals the model size or when a
    point has a zero coordinate that a model monomial raises to a negative
    power, and DegenerateConfigError when two points coincide.
    """
    from fractions import Fraction
    n = len(model)
    points = list(z_points) + list(w_points)
    if len(points) != n:
        raise DomainError(
            f"|Z| + |W| = {len(points)} must equal the model size {n}"
        )
    normalized = [(Fraction(x), Fraction(y)) for x, y in points]
    if len(set(normalized)) != len(normalized):
        raise DegenerateConfigError("coincident points in the configuration")
    for x, y in normalized:
        for ex, ey in model:
            if (ex < 0 and x == 0) or (ey < 0 and y == 0):
                raise DomainError(f"point ({x}, {y}) is a pole of the model monomial x^{ex} y^{ey}")
    return [list(evaluation_covector(p, model)) for p in normalized]


def theta_vanishes(z_points, w_points, model) -> bool:
    """Whether some model section vanishes on all points of Z union W.

    True exactly when the n x n evaluation determinant at the combined
    configuration is zero; by Laplace expansion this agrees with the
    vanishing of the wedge pairing of the wedged evaluation covectors.
    """
    return det_exact(theta_rows(z_points, w_points, model)) == 0


def monomial_exponents(w_dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree `degree` in w_dim variables, lex-descending."""
    if w_dim < 1 or degree < 0:
        raise DomainError("need w_dim >= 1 and degree >= 0")

    def gen(vars_left: int, total: int):
        if vars_left == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(vars_left - 1, total - first):
                yield (first,) + rest

    return tuple(gen(w_dim, degree))


def multinomial(alpha: tuple[int, ...]) -> int:
    total = sum(alpha)
    value = math.factorial(total)
    for a in alpha:
        value //= math.factorial(a)
    return value


class SymDualityMatrix(Frozen):
    """Diagonal matrix of the perfect pairing between Sym^n(W) and Sym^n(W*).

    In monomial bases on both sides the pairing of x^alpha with xi^alpha is
    the multinomial coefficient n!/alpha!; off-diagonal entries vanish.
    """

    __slots__ = ("w_dim", "degree", "monomials", "diagonal")

    @property
    def size(self) -> int:
        return len(self.monomials)

    @property
    def full_rank(self) -> bool:
        return all(d != 0 for d in self.diagonal)


def sym_duality_matrix(w_dim: int, n: int) -> SymDualityMatrix:
    if w_dim < 1 or n < 1:
        raise DomainError("need w_dim >= 1 and n >= 1")
    monomials = monomial_exponents(w_dim, n)
    return SymDualityMatrix(
        w_dim, n, monomials, tuple(multinomial(alpha) for alpha in monomials)
    )


def incidence_form(z_points, model) -> tuple[Fraction, ...]:
    """Coefficients, over degree-n monomials, of the product of point evaluations.

    The returned vector represents the symmetric tensor obtained by
    multiplying the evaluation covectors of the points of Z: evaluating it
    on a section t (see ``evaluate_sym_form``) gives prod_i t(z_i).
    """
    from fractions import Fraction
    w_dim = len(model)
    n = len(z_points)
    poly: dict[tuple[int, ...], Fraction] = {(0,) * w_dim: Fraction(1)}
    for p in z_points:
        row = evaluation_covector(p, model)
        new: dict[tuple[int, ...], Fraction] = {}
        for expo, c in poly.items():
            for j, a in enumerate(row):
                if a:
                    bumped = expo[:j] + (expo[j] + 1,) + expo[j + 1 :]
                    new[bumped] = new.get(bumped, Fraction(0)) + c * a
        poly = new
    return tuple(poly.get(alpha, Fraction(0)) for alpha in monomial_exponents(w_dim, n))


def evaluate_sym_form(coeffs, w_dim: int, degree: int, t_coeffs) -> Fraction:
    """Value of a symmetric form on the section with coefficients t_coeffs."""
    from fractions import Fraction
    monomials = monomial_exponents(w_dim, degree)
    if len(coeffs) != len(monomials) or len(t_coeffs) != w_dim:
        raise DomainError("coefficient vector lengths do not match the monomial basis")
    total = Fraction(0)
    for c, alpha in zip(coeffs, monomials):
        if c:
            term = Fraction(c)
            for t, e in zip(t_coeffs, alpha):
                if e:
                    term *= Fraction(t) ** e
            total += term
    return total
