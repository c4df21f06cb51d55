"""Exact Verlinde numbers and their rank-level symmetry.

The dimension v_{r,k} of the space of level-k generalized theta functions
on the moduli space of rank-r bundles with trivial determinant over a
genus-g curve is computed from the trigonometric sum

    v_{r,k} = r^g / n^g * Sigma,   n = r+k,
    Sigma   = sum over S |_| T = {1..n}, |S| = k of
              prod_{s in S, t in T} (2*sin(pi*|s-t|/n))^(g-1),

evaluated entirely in exact arithmetic in the real cyclotomic field
Q(theta), theta = 2*cos(2*pi/n), of degree D = phi(n)/2: each term lives
there, Sigma is taken as Tr(Sigma) / D, and the prefactored result is
asserted to be a non-negative integer.  That assertion and the Galois
check below are theorems, so a failure signals a bug rather than bad input.

Five identities of the sum cut the work without changing its value:

* Fold.  2*sin(pi*d/n) = 2*sin(pi*(n-d)/n), so a subset's term depends
  only on how often each cyclic distance min(d, n-d), 1 <= d <= n//2,
  occurs between S and T.
* Complement.  Swapping S and T permutes the pairs, so Sigma over the
  k-subsets equals Sigma over the (n-k)-subsets; only the smaller side
  k' = min(k, n-k) is enumerated.
* Rotation.  Cyclic distances, and hence terms, do not change when
  {0..n-1} is rotated mod n.  Each subset meets 0 in k' of its n
  rotations, so Sigma = (n/k') * (sum over the k'-subsets containing 0).
  Those subsets fall into rotation classes, one per necklace of gaps
  (a_1, ..., a_k'), a_i >= 1 summing to n; a necklace of period p holds
  p of them.  So the sum takes one term per necklace, weighted by p.
* Square.  Below d = n/2 every folded exponent e is even, so the factor
  of distance d is (4*sin^2(pi*d/n))^((e/2)(g-1)), and 4*sin^2(pi*d/n) =
  2 - 2*cos(2*pi*d/n) lies in Q(theta).  At d = n/2 the factor is the
  integer 2^(e(g-1)).  A term is the (g-1)-th power of its group's base,
  the product of the factors with g-1 taken out.
* Galois.  A unit j of Z/n maps the k'-subsets containing 0 onto
  themselves and d to min(jd, n-jd) mod n, as the automorphism of Q(theta)
  4*sin^2(pi*d/n) -> 4*sin^2(pi*j*d/n) does.  Groups in one orbit of the
  units modulo +-1 have conjugate terms, one trace and one multiplicity
  (checked), so Tr(Sigma) takes one trace Tr(b^(g-1)) per orbit.  With
  m = g-1 and c = b^(m//2), that trace is Tr(c*y) for y = c (m even) or
  c*b (m odd), a quadratic form in c and y over Tr(theta^s), s <= 2D-2,
  so the last and widest product is never built.

The modified number vt_{r,k} = (n^g / r^g) * v_{r,k} = Sigma counts
sections of a determinant-twisted theta bundle and is an integer as well.
By the complement identity v_{k,r} = (k^g / r^g) * v_{r,k}, which is the
rank-level symmetry vt_{r,k} = vt_{k,r}; one evaluation of Sigma gives
all three numbers.
"""

import math
from collections import Counter
from itertools import combinations

from ._frozen import Frozen
from .cyclotomic import four_sin_squared, real_cyclotomic_polynomial, real_traces, trace_of_product
from .cyclotomic import two_sin  # noqa: F401  (unused; bench/traced_cli.py reads its cache_info)
from .errors import DEFAULT_TERM_BUDGET, ArithmeticBugError, DomainError, NotIntegralError
from .errors import check_budget, decimal_str


class VerlindeQuery(Frozen):
    """Rank, level and genus of a single Verlinde-number evaluation."""

    __slots__ = ("rank", "level", "genus")

    def _validate(self) -> None:
        if self.rank < 1 or self.level < 1:
            raise DomainError("rank and level must be >= 1")
        if self.genus < 2:
            raise DomainError("genus must be >= 2")


class VerlindeReport(Frozen):
    """Both sides of the rank-level symmetry for one query.

    `symmetry_holds` compares v_{r,k} * k^g with v_{k,r} * r^g.  Both
    values come from the same sum, so this is an identity of the formula
    and cannot fail.  The sum is checked independently in the tests: by
    the fusion-ring count, and by the laws of v_{r,k} as a polynomial in
    the level k, which tie sums at different n.
    """

    __slots__ = ("value", "modified_value", "partner_value", "symmetry_holds")


def _distance_exponent_groups(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Group the k'-subsets of Z/n that contain 0 by their folded distance vector.

    k' = min(k, n-k).  A subset S is summarized by the vector counting, for
    each cyclic distance d in 1..n//2, the pairs (s, t) with s in S, t not
    in S at that distance.  Every element has the same full row of
    distances to the other n-1 elements (two at each d < n/2, one at
    d = n/2), so the vector is k' times that row minus two per pair inside
    S.  Many subsets share a vector; the sum then needs one product per
    distinct vector, weighted by multiplicity.

    Rotation does not change the vector, so one subset per rotation class
    is enough: the necklace of its gaps, from `_gap_necklaces`, with
    positions 0, a_1, a_1 + a_2, ...  A necklace of period p stands for the
    p subsets containing 0 in its class, so it weighs p, and the
    multiplicities still add up to C(n-1, k'-1).  Groups are returned
    sorted, so results are reproducible.
    """
    kp = min(k, n - k)
    half = n // 2
    cyclic = [min(d, n - d) for d in range(n)]
    full_row = [0] + [2 * kp] * half
    if n % 2 == 0:
        full_row[half] = kp
    groups: Counter[tuple[int, ...]] = Counter()
    for subset, period in _gap_necklaces(n, kp):
        counts = full_row.copy()
        for i, s in enumerate(subset):
            for t in subset[i + 1 :]:
                counts[cyclic[t - s]] -= 2
        groups[tuple(counts[1:])] += period
    return tuple(sorted(groups.items()))


def _gap_necklaces(n: int, kp: int):
    """(positions, period) of one k'-subset of Z/n containing 0 per rotation class, k' >= 1.

    A subset containing 0 is its gaps (a_1, ..., a_k'), a_i >= 1 summing to
    n, and rotating the subset onto another of its elements rotates the
    gaps.  So the classes are the necklaces of gaps, each written as its
    least rotation.  They come from the FKM prenecklace walk in lex order
    (Cattell, Ruskey, Sawada, Serra, Miers, J. Algorithms 37, 2000): a_t
    runs from a_(t-p) up, where p is the period of a_1..a_(t-1), and the
    period becomes t when a_t exceeds a_(t-p).  A necklace is a
    prenecklace whose period divides k'.  No gap is smaller than a_1, so
    a_t may take at most what leaves a_1 for each later gap, and the last
    gap is what remains of n.  The walk keeps the chosen gaps in lists and
    backtracks in a loop, so its depth does not grow with k'.  Yields the
    positions 0, a_1, a_1 + a_2, ... as a list that the next step reuses.
    """
    gaps = [1] * (kp + 1)  # gaps[0] is a sentinel: a_1 has period 1 whatever its value
    period = [1] * kp  # period[t] of a_1..a_t
    pos = [0] * kp  # pos[t] = a_1 + ... + a_t, the position of element t
    t, v = 1, 1  # try gap v at position t
    while True:
        if t < kp:
            least = v if t == 1 else gaps[1]
            if v + (kp - t) * least <= n - pos[t - 1]:
                p = period[t - 1]
                gaps[t] = v
                period[t] = p if v == gaps[t - p] else t
                pos[t] = pos[t - 1] + v
                t += 1
                v = gaps[t - period[t - 1]]
                continue
        else:
            v = n - pos[t - 1]
            p = period[t - 1]
            if v >= gaps[t - p]:
                if v > gaps[t - p]:
                    p = t
                if kp % p == 0:
                    yield pos, p
        t -= 1
        if not t:
            return
        v = gaps[t] + 1


def _galois_orbits(n: int, groups) -> list[tuple[tuple[int, ...], int]]:
    """(representative, summed multiplicity) of each orbit of the groups under the units."""
    half = n // 2
    units = (j for j in range(1, half + 1) if math.gcd(j, n) == 1)
    # The image under 1/j takes the exponent at min(jd, n-jd) mod n to d.
    moves = [[min(j * d % n, -j * d % n) - 1 for d in range(1, half + 1)] for j in units]
    unmerged = dict(groups)
    orbits = []
    for vector, multiplicity in groups:
        if vector in unmerged:
            orbit = {tuple([vector[i] for i in move]) for move in moves}
            if any(unmerged.pop(image, None) != multiplicity for image in orbit):
                raise ArithmeticBugError(f"Galois check failed: orbit of {vector} (n = {n})")
            orbits.append((vector, multiplicity * len(orbit)))
    return orbits


def _integral(num: int, den: int) -> int:
    """num / den, asserted to be a non-negative integer; den > 0."""
    quotient, remainder = divmod(num, den)
    if remainder or quotient < 0:
        raise NotIntegralError(num, den)
    return quotient


def verlinde_number(query: VerlindeQuery, *, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Exact v_{r,k} for the given query.

    Raises TermBudgetError when the subset count C(r+k, k) exceeds the
    budget, and ArithmeticBugError (integrality or the Galois check) if an
    exactness guarantee of the formula fails, which would indicate a bug.
    """
    r, k, g = query.rank, query.level, query.genus
    n = r + k
    check_budget(n, k, term_budget)
    power = g - 1
    degree = len(real_cyclotomic_polynomial(n)) - 1
    traces = real_traces(n)
    squares = {}  # d -> 4*sin^2(pi*d/n), built once per query
    factors = {}  # (d, e) -> the factor of distance d with exponent e
    total = 0
    for exponents, weight in _galois_orbits(n, _distance_exponent_groups(n, k)):
        base = None
        for d, e in enumerate(exponents, start=1):
            if e:
                factor = factors.get((d, e))
                if factor is None:
                    if 2 * d == n:
                        factor = 2**e
                    else:
                        square = squares.get(d)
                        if square is None:
                            square = squares[d] = four_sin_squared(n, d)
                        factor = square ** (e // 2)
                    factors[(d, e)] = factor
                base = factor if base is None else factor * base
        if isinstance(base, int):
            trace = degree * base**power
        elif power == 1:
            trace = sum(c * t for c, t in zip(base.coeffs, traces))
        else:
            # Tr(b^m) = Tr(c * y) with c = b^(m//2) and y = c or c*b: the form
            # over the traces replaces the last, widest product.
            half = base if power < 4 else base ** (power // 2)
            trace = trace_of_product(half, half if power % 2 == 0 else half * base)
        total += weight * trace
    return _integral(total * n * r**g, degree * min(k, r) * n**g)


def modified_verlinde(query: VerlindeQuery, *, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """vt_{r,k} = ((k+r)^g / r^g) * v_{r,k}, asserted integral."""
    return check_rank_level_symmetry(query, term_budget=term_budget).modified_value


def check_rank_level_symmetry(
    query: VerlindeQuery, *, term_budget: int = DEFAULT_TERM_BUDGET
) -> VerlindeReport:
    """v_{r,k}, vt_{r,k} and v_{k,r} from one evaluation of the sum.

    The partner v_{k,r} = v_{r,k} * k^g / r^g and the modified value
    vt_{r,k} = v_{r,k} * (r+k)^g / r^g are each asserted integral, so a
    wrong sum can still fail here with NotIntegralError.
    """
    r, k, g = query.rank, query.level, query.genus
    value = verlinde_number(query, term_budget=term_budget)
    partner = _integral(value * k**g, r**g)
    return VerlindeReport(
        value=value,
        modified_value=_integral(value * (r + k) ** g, r**g),
        partner_value=partner,
        symmetry_holds=value * k**g == partner * r**g,
    )


_LOG2_10 = math.log(10, 2)
# The float oracle's precision bounds in decimal digits: the floor is the 15
# digits it prints, and the ceiling bounds the width of its integers (at
# 10,000 digits, r = k = 4 and g = 10 take about a second).
_MIN_PRECISION = 15
_MAX_PRECISION = 10_000
# Guard bits of the float oracle's result, and the bits of the fixed point
# that the printed digits are floored from: 18 decimal digits and 10 more.
_GUARD = 6
_DIGIT_BITS = int(18 * _LOG2_10) + 10


def _pi_fixed(bits: int) -> int:
    """pi * 2^bits to within a unit or two, from Machin's pi = 16 atan(1/5) - 4 atan(1/239)."""
    guard = bits.bit_length() + 6
    one = 1 << (bits + guard)

    def atan_inv(x: int) -> int:
        total = term = one // x
        x2, i = x * x, 3
        while term:
            term //= x2
            total += -(term // i) if i & 2 else term // i
            i += 2
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> guard


def _two_sines(n: int, width: int) -> list[tuple[int, int]]:
    """(m, e) with m * 2^e = 2*sin(pi*d/n) and m of `width` bits, for d = 0..n-1 (d = 0 unused).

    In fixed point: the Taylor series of sin at a = (pi/n) / 2^h and cos a
    = sqrt(1 - sin^2 a), then h doublings (sin 2a = 2 sin a cos a, cos 2a =
    cos^2 a - sin^2 a) to pi/n, then d-1 rotations by pi/n to pi*d/n.
    With h near sqrt(width)/2 the series and the doublings take about
    sqrt(width) products each.  A doubling can triple the error and a
    rotation adds to it, so the fixed point carries 2h guard bits, and
    2*bit_length(n) more because the sine near d = n is about 1/n.
    """
    halvings = math.isqrt(width) // 2
    bits = width + 2 * n.bit_length() + width.bit_length() + 2 * halvings + 4
    a = _pi_fixed(bits) // n >> halvings
    a2 = a * a >> bits
    sin = term = a
    i = 2
    while term:
        term = (term * a2 >> bits) // (i * (i + 1))
        sin += -term if i & 2 else term
        i += 2
    cos = math.isqrt((1 << 2 * bits) - sin * sin)
    for _ in range(halvings):
        sin, cos = sin * cos >> (bits - 1), (cos - sin) * (cos + sin) >> bits
    sines = [(0, 0)]
    s, c = sin, cos
    for _ in range(1, n):
        shift = s.bit_length() - width
        sines.append((s >> shift, shift + 1 - bits))
        s, c = (s * cos + c * sin) >> bits, (c * cos - s * sin) >> bits
    return sines


def _power(m: int, e: int, power: int, width: int) -> tuple[int, int]:
    """(m * 2^e)^power by binary powering, every product truncated to `width` bits."""
    result, exponent = 1, 0
    while True:
        if power & 1:
            result *= m
            shift = result.bit_length() - width
            result >>= shift
            exponent += e + shift
        power >>= 1
        if not power:
            return result, exponent
        m *= m
        shift = m.bit_length() - width
        m >>= shift
        e = 2 * e + shift


def float_oracle(query: VerlindeQuery, precision: int = 30) -> tuple[int, int]:
    """The unreduced sum in binary floating point, behind ``--float-oracle``.

    Enumerates all C(r+k, k) subsets with the plain distances |s-t| and
    shares none of the exact path's reductions, so it checks them.  Every
    number is an integer mantissa m of W bits with a binary exponent e,
    standing for m * 2^e, and every product is truncated to W bits: the
    k*r sines of a term, then the binary powering to g-1, which multiplies
    the term's relative error by g-1.  All terms are positive, so no
    cancellation occurs.  W leaves guard bits for those truncations, so
    the sum is known to 2^-(P+1) relatively, and it is returned rounded to
    nearest at P bits, where P = round((precision + 1) * log2(10)) + 6.  A
    sum that is an integer of at most P bits therefore comes out exact.
    Returns the exact dyadic (m, e); `dyadic_text` prints it.
    """
    if precision < _MIN_PRECISION:
        raise DomainError(f"float oracle precision must be >= {_MIN_PRECISION} digits")
    if precision > _MAX_PRECISION:
        raise DomainError(f"float oracle precision must be <= {_MAX_PRECISION} digits")
    r, k, g = query.rank, query.level, query.genus
    n = r + k
    power = g - 1
    bits = round((precision + 1) * _LOG2_10) + _GUARD
    # The truncations err by at most power * (3*k*r + 4) units of 2^(1 - W).
    width = bits + (power * (3 * k * r + 4)).bit_length() + 3
    sines = _two_sines(n, width)
    universe = range(1, n + 1)
    terms = []
    for subset in combinations(universe, k):
        outside = [t for t in universe if t not in subset]
        m, e = 1, 0
        for s in subset:
            for t in outside:
                sine, exponent = sines[abs(s - t)]
                m *= sine
                shift = m.bit_length() - width
                m >>= shift
                e += exponent + shift
        terms.append(_power(m, e, power, width))
    # Every term has W bits, so the largest is at least 2^(top + W - 1), and
    # aligning the terms to 2^(top - guard) loses less than 2^-W of the sum.
    top = max(e for _, e in terms)
    guard = len(terms).bit_length() + 2
    total = sum((m << guard) >> (top - e) for m, e in terms)
    # r^g / n^g, with bit_length(n^g) more bits in the dividend for the quotient.
    num, den = total * r**g, n**g
    shift = width + den.bit_length() - num.bit_length()
    num = num << shift if shift >= 0 else num >> -shift
    value = num // den
    drop = value.bit_length() - bits
    return (value + (1 << (drop - 1))) >> drop, top - guard - shift + drop


def dyadic_text(m: int, e: int) -> str:
    """m * 2^e, m > 0, to 15 significant digits, in the float oracle's notation.

    Floors the value to a fixed point of 69 significant bits, converts that
    floor to decimal exactly, and rounds it half up at the 16th digit.
    Prints fixed notation while the leading digit's exponent is in (-5, 15),
    with trailing zeros stripped but ".0" kept, and e+N / e-N otherwise.
    Up to 2^3500 this is what ``mpmath.nstr`` prints.  Above it ``nstr``
    first divides by a power of ten truncated to 69 bits, so on an exact
    tie at the 16th digit it can print the last digit one unit lower.
    """
    fixprec = max(_DIGIT_BITS - e - m.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = e + fixprec
    fixed = m << shift if shift >= 0 else m >> -shift
    digits = decimal_str(fixed * 10**fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    head = digits[:15]
    if digits[15] >= "5":
        head = str(int(head) + 1)
        if len(head) > 15:
            head, exponent = head[:15], exponent + 1
    if -5 < exponent < 15:
        split = exponent + 1
        if exponent < 0:
            head, split = "0" * -exponent + head, 1
        suffix = ""
    else:
        split, suffix = 1, f"e{exponent:+d}"
    text = (head[:split] + "." + head[split:]).rstrip("0")
    return (text + "0" if text.endswith(".") else text) + suffix
