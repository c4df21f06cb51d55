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
from .errors import ArithmeticBugError, DegenerateConfigError, DomainError, decimal_str

# Only the Fraction adapters over the integer cores and the symmetric-form
# helpers import Fraction, so that no duality query loads fractions or the
# decimal and numbers it imports.
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


def laplace_sum(n: int, k: int, alpha, beta):
    """Coefficient of e_{1..n} in alpha ^ beta for coefficient vectors in colex order.

    This is the Laplace expansion sum of sign * alpha_S * beta_{S^c}, in the
    arithmetic of the coefficients: integer vectors give an integer.
    """
    signs = wedge_duality_matrix(n, k).signs
    size = len(signs)  # = C(n, k) = C(n, n-k), the length of beta as well
    if len(alpha) != size or len(beta) != size:
        raise DomainError(f"expected coefficient vectors of lengths {size} and {size}")
    return sum([a * s * b for a, s, b in zip(alpha, signs, reversed(beta)) if a])


def pair_wedge(n: int, k: int, alpha, beta) -> Fraction:
    """``laplace_sum`` as a Fraction."""
    from fractions import Fraction
    return Fraction(laplace_sum(n, k, alpha, beta))


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


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss elimination.

    Bareiss elimination (Math. Comp. 22, 1968) keeps every entry an
    integer: after step c each remaining entry is a (c+2)-minor of the
    row-swapped matrix, so each update divides exactly by the previous
    pivot.  The cost is O(n^3) integer operations on numbers bounded by
    Hadamard's bound for the determinant.  A remainder in one of those
    divisions is an ArithmeticBugError.
    """
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
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
    return sign * prev


def det_exact(rows) -> Fraction:
    """Determinant over the rationals: ``bareiss_det`` of the rows scaled to integers."""
    from fractions import Fraction
    m, scale = _integer_rows(rows)
    return Fraction(bareiss_det(m), scale)


def _fraction_free_reduce(m: list[list[int]]) -> tuple[int, int]:
    """Bring integer rows in place to d times a reduced row echelon form R.

    Fraction-free Gauss-Jordan: step i takes the first column col in which
    one of rows i.. is non-zero, swaps that row into row i, and with its
    entry p sets every other row r to (p * r - r[col] * row_i) / prev,
    where prev is the pivot of step i-1.  As in Bareiss elimination each entry is
    then a minor of the row-swapped matrix, so the division is exact; a
    remainder is an ArithmeticBugError.  After the last step each row has
    the last pivot d in its own pivot column and 0 in the others, so the
    rows are d * R, and d is the minor of the row-swapped matrix on the
    pivot columns.  Returns (sign, d) with sign = (-1)^swaps, or (1, 0)
    when the rows are linearly dependent.
    """
    sign = 1
    prev = 1
    col = 0
    width = len(m[0]) if m else 0
    for i in range(len(m)):
        pivot = None
        while pivot is None:
            if col == width:
                return 1, 0
            pivot = next((r for r in range(i, len(m)) if m[r][col]), None)
            if pivot is None:
                col += 1
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            sign = -sign
        top = m[i]
        p = top[col]
        for r, row in enumerate(m):
            if r == i:
                continue
            lead = row[col]
            # Rows below i are zero left of col; rows above are not.
            for c in range(col if r > i else 0, width):
                value, remainder = divmod(p * row[c] - lead * top[c], prev)
                if remainder:
                    raise ArithmeticBugError(
                        f"Gauss-Jordan step {i}: {prev} does not divide an updated entry"
                    )
                row[c] = value
        prev = p
        col += 1
    return sign, prev


def integer_wedge(rows, n: int) -> tuple[list[int], int, int]:
    """The wedge of k integer covectors in Z^n as integers c over colex k-subsets and num/den.

    The wedge is c * num / den.  The rows are first reduced by
    ``_fraction_free_reduce`` to G = d * R: with R the reduced form of the
    swapped rows, wedge(rows) = sign * d * wedge(R) = sign * wedge(G) / d^(k-1).
    So c is wedge(G), num the sign and den d^(k-1).  A row of G is d at
    its pivot plus entries in the n - k non-pivot columns, so after i rows
    every term is an i-subset of i pivots and those n - k columns.  The
    wedge is built one row at a time in the exterior algebra, with subsets
    as bitmasks (bit j-1 for member j): e_T ^ e_j is
    (-1)^#{t in T : t > j} e_{T u {j}} for j not in T.  Every intermediate
    layer has at most C(n,k) terms, so the cost is at most
    k * (n-k+1) * C(n,k) integer products plus O(k^2 n) for the reduction,
    in place of C(n,k) separate k x k eliminations.  Dependent rows give
    c = 0 and num = 0.
    """
    m = [list(row) for row in rows]
    k = len(m)
    sign, d = _fraction_free_reduce(m)
    if not d:
        return [0] * math.comb(n, k), 0, 1
    wedge = {0: 1}
    for row in m:
        step: dict[int, int] = {}
        get = step.get
        for j, v in enumerate(row):
            if not v:
                continue
            bit = 1 << j
            for mask, coeff in wedge.items():
                if not mask & bit:
                    key = mask | bit
                    term = -coeff * v if (mask >> (j + 1)).bit_count() & 1 else coeff * v
                    step[key] = get(key, 0) + term
        wedge = step
    return [wedge.get(mask, 0) for mask in _colex_masks(n, k)], sign, (d ** (k - 1) if k else 1)


def wedge_coefficients(vectors, n: int, k: int) -> tuple[Fraction, ...]:
    """Coefficients over colex k-subsets of the wedge of k covectors in Q^n.

    ``integer_wedge`` of the rows scaled to integers (see ``_integer_rows``).
    """
    from fractions import Fraction
    if len(vectors) != k:
        raise DomainError(f"expected {k} covectors, got {len(vectors)}")
    if k > n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    if any(len(vec) != n for vec in vectors):
        raise DomainError(f"covectors must have length {n}")
    rows, scale = _integer_rows(vectors)
    coeffs, num, den = integer_wedge(rows, n)
    factor = Fraction(num, den * scale)
    return tuple(c * factor for c in coeffs)


def reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def ratio_text(num: int, den: int) -> str:
    """A reduced ratio in full, as Fraction prints it: "num" or "num/den"."""
    return decimal_str(num) if den == 1 else f"{decimal_str(num)}/{decimal_str(den)}"


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


def parse_ratios(pair) -> tuple[tuple[int, int], tuple[int, int]]:
    """A point from JSON as two reduced (num, den) pairs; each coordinate an integer or "p/q".

    Nothing else is accepted: exponent and decimal notation would let a
    few characters stand for a number of millions of digits.  A numerator
    or denominator over Python's int digit limit raises ValueError.
    """
    x, y = pair
    for c in (x, y):
        if isinstance(c, bool) or not (
            isinstance(c, int) or (isinstance(c, str) and _RATIONAL.fullmatch(c))
        ):
            raise DomainError(f"coordinate {c!r} is not an integer or a string 'p/q'")
    return _coordinate(x, pair), _coordinate(y, pair)


def _coordinate(c, pair) -> tuple[int, int]:
    if isinstance(c, int):
        return c, 1
    num, _, den = c.partition("/")
    num, den = int(num), int(den or 1)
    if not den:
        raise DomainError(f"zero denominator in point {pair!r}")
    return reduced(num, den)


def parse_point(pair) -> tuple[Fraction, Fraction]:
    """``parse_ratios`` as Fractions."""
    from fractions import Fraction
    return tuple(Fraction(*c) for c in parse_ratios(pair))


def _powers(base: int, top: int) -> list[int]:
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * base)
    return powers


def theta_integer_rows(z_points, w_points, model) -> tuple[list[list[int]], int]:
    """Integer evaluation rows of Z followed by W, and the product of their scales.

    Each point is a pair of reduced (num, den) coordinates.  Raises
    DomainError unless |Z| + |W| equals the model size or when a point has
    a zero coordinate that a model monomial raises to a negative power, and
    DegenerateConfigError when two points coincide.

    The row of a point (a/b, c/d) is its evaluation covector times
    s = a^-lx b^hx c^-ly d^hy, where lx <= 0 <= hx bound the x exponents
    of the model and ly <= 0 <= hy the y exponents: x^ex y^ey * s is
    a^(ex-lx) b^(hx-ex) c^(ey-ly) d^(hy-ey), an integer.  So a multilinear
    function of the evaluation covectors is its value on these rows
    divided by the product of the s.
    """
    n = len(model)
    points = [*z_points, *w_points]
    if len(points) != n:
        raise DomainError(
            f"|Z| + |W| = {len(points)} must equal the model size {n}"
        )
    if len(set(points)) != n:
        raise DegenerateConfigError("coincident points in the configuration")
    for x, y in points:
        for ex, ey in model:
            if (ex < 0 and not x[0]) or (ey < 0 and not y[0]):
                raise DomainError(
                    f"point ({ratio_text(*x)}, {ratio_text(*y)}) is a pole "
                    f"of the model monomial x^{ex} y^{ey}"
                )
    xs = [ex for ex, _ in model] + [0]
    ys = [ey for _, ey in model] + [0]
    lx, hx, ly, hy = min(xs), max(xs), min(ys), max(ys)
    rows = []
    scale = 1
    for (a, b), (c, d) in points:
        pa, pb = _powers(a, hx - lx), _powers(b, hx - lx)
        pc, pd = _powers(c, hy - ly), _powers(d, hy - ly)
        rows.append(
            [pa[ex - lx] * pb[hx - ex] * pc[ey - ly] * pd[hy - ey] for ex, ey in model]
        )
        scale *= pa[-lx] * pb[hx] * pc[-ly] * pd[hy]
    return rows, scale


def theta_vanishes(z_points, w_points, model) -> bool:
    """Whether some model section vanishes on all points of Z union W.

    True exactly when the n x n evaluation determinant at the combined
    configuration is zero; by Laplace expansion this agrees with the
    vanishing of the wedge pairing of the wedged evaluation covectors.
    Coordinates are ints or Fractions.
    """
    def ratios(points):
        return [((x.numerator, x.denominator), (y.numerator, y.denominator)) for x, y in points]

    rows, _ = theta_integer_rows(ratios(z_points), ratios(w_points), model)
    return bareiss_det(rows) == 0


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
