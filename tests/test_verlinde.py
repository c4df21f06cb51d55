from __future__ import annotations

import decimal
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import mpmath
import pytest

from thetacalc import verlinde
from thetacalc.cli import main
from thetacalc.cyclotomic import (
    CycloElement,
    cyclotomic_polynomial,
    four_sin_squared,
    real_traces,
    to_rational,
)
from thetacalc.errors import ArithmeticBugError, DomainError, NotIntegralError, TermBudgetError
from thetacalc.verlinde import (
    VerlindeQuery,
    _distance_exponent_groups,
    _gap_necklaces,
    _integral,
    check_rank_level_symmetry,
    dyadic_text,
    float_oracle,
    modified_verlinde,
    verlinde_number,
)

from conftest import (
    LEVEL_LAW_CASES,
    dyadic,
    fusion_count,
    level_differences,
    level_one_oracle,
    level_polynomial,
    mpmath_float_oracle,
)


def _naive_float(r: int, k: int, g: int) -> float:
    """Straight float64 subset enumeration; independent of the exact path."""
    n = r + k
    total = 0.0
    for subset in combinations(range(1, n + 1), k):
        inside = set(subset)
        term = 1.0
        for s in subset:
            for t in range(1, n + 1):
                if t not in inside:
                    term *= abs(2 * math.sin(math.pi * (s - t) / n)) ** (g - 1)
        total += term
    return total * r**g / n**g


def _unfolded_groups(n: int, k: int) -> Counter[tuple[int, ...]]:
    """All C(n, k) subsets of {1..n}, grouped by their unfolded |s-t| vector."""
    universe = range(1, n + 1)
    groups: Counter[tuple[int, ...]] = Counter()
    for subset in combinations(universe, k):
        inside = set(subset)
        counts = [0] * n
        for s in subset:
            for t in universe:
                if t not in inside:
                    counts[abs(s - t)] += 1
        groups[tuple(counts[1:])] += 1
    return groups


def _zeta_mul(a: list[int], b: list[int], phi: tuple[int, ...]) -> list[int]:
    """a * b in Q(zeta_m), over 1, zeta, ..., modulo the monic Phi_m."""
    deg = len(phi) - 1
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    lower = [(j, pj) for j, pj in enumerate(phi[:-1]) if pj]
    for i in range(len(conv) - 1, deg - 1, -1):
        c = conv[i]
        if c:
            for j, pj in lower:
                conv[i - deg + j] -= c * pj
    return conv[:deg] + [0] * (deg - len(conv))


def _zeta_pow(x: list[int], e: int, phi: tuple[int, ...]) -> list[int]:
    result = [1]
    while e:
        if e & 1:
            result = _zeta_mul(result, x, phi)
        e >>= 1
        if e:
            x = _zeta_mul(x, x, phi)
    return result


def _zeta_two_sin(n: int, d: int, phi: tuple[int, ...]) -> list[int]:
    """2*sin(pi*d/n) = zeta^(3n+2d) + zeta^(n-2d) with zeta = zeta_{4n}, i = zeta^n."""
    raw = [0] * (4 * n)
    raw[(3 * n + 2 * d) % (4 * n)] += 1
    raw[(n - 2 * d) % (4 * n)] += 1
    return _zeta_mul(raw, [1], phi)


def _unfolded_exact(r: int, k: int, g: int, groups: Counter[tuple[int, ...]]) -> int:
    """Reference for the exact path: no fold, no rotation, no complement.

    It multiplies 2*sin(pi*d/n) in the full field Q(zeta_{4n}) modulo
    Phi_{4n}, with a multiply of its own, not 4*sin^2 in the real subfield,
    so it shares neither psi_n nor the sine elements with the exact path.
    """
    n = r + k
    phi = cyclotomic_polynomial(4 * n)
    powers: dict[tuple[int, int], list[int]] = {}
    total = [0] * (len(phi) - 1)
    for exponents, multiplicity in groups.items():
        term = [1]
        for d, e in enumerate(exponents, start=1):
            if e:
                if (d, e) not in powers:
                    powers[(d, e)] = _zeta_pow(_zeta_two_sin(n, d, phi), e * (g - 1), phi)
                term = _zeta_mul(term, powers[(d, e)], phi)
        total = [t + multiplicity * c for t, c in zip(total, term)]
    assert not any(total[1:])
    value = total[0] * Fraction(r**g, n**g)
    assert value.denominator == 1
    return int(value)


def _element_sums(n: int, groups, genera):
    """Reference for the orbit sum: (g, Sigma * k'/n), each group's power added up in Q(theta)."""
    bases = []
    for exponents, multiplicity in groups:
        base = CycloElement.one(n)
        for d, e in enumerate(exponents, start=1):
            if e:
                base = base * (2**e if 2 * d == n else four_sin_squared(n, d) ** (e // 2))
        bases.append((multiplicity, base))
    for g in genera:
        total = [0] * len(CycloElement.one(n).coeffs)
        for multiplicity, base in bases:
            total = [t + multiplicity * c for t, c in zip(total, (base ** (g - 1)).coeffs)]
        yield g, to_rational(CycloElement(n, tuple(total)))


def _su2_fusion_count(k: int, g: int) -> int:
    """V_g = Tr(Omega^(g-1)) in the SU(2) level-k fusion ring, integers only.

    Omega = sum_a N_a N_a^T, with N_a the truncated Clebsch-Gordan rule
    N_ab^c = 1 iff |a-b| <= c <= min(a+b, 2k-a-b) and a+b+c is even.
    Shares nothing with the trigonometric sum.
    """
    weights = range(k + 1)

    def fusion(a, b, c):
        return int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0)

    omega = [
        [sum(fusion(a, b, c) * fusion(a, d, c) for a in weights for c in weights) for d in weights]
        for b in weights
    ]
    power = [[int(i == j) for j in weights] for i in weights]
    for _ in range(g - 1):
        power = [
            [sum(power[i][m] * omega[m][j] for m in weights) for j in weights] for i in weights
        ]
    return sum(power[i][i] for i in weights)


def test_matches_unfolded_exact_sum_small():
    for n in range(2, 13):
        for r in range(1, n):
            groups = _unfolded_groups(n, n - r)
            for g in range(2, 5):
                expected = _unfolded_exact(r, n - r, g, groups)
                assert verlinde_number(VerlindeQuery(r, n - r, g)) == expected


@pytest.mark.parametrize(
    "r,k,g",
    [(8, 8, 3), (9, 9, 2), (6, 6, 10), (7, 7, 20), (6, 6, 40), (4, 9, 72), (5, 6, 57), (7, 7, 80)],
)
def test_matches_unfolded_exact_sum_large(r, k, g):
    expected = _unfolded_exact(r, k, g, _unfolded_groups(r + k, k))
    assert verlinde_number(VerlindeQuery(r, k, g)) == expected


def test_orbit_sum_matches_element_sum(monkeypatch):
    """One power per Galois orbit gives the integers of one power per distance group."""
    groups = lru_cache(maxsize=None)(_distance_exponent_groups)
    # v_{r,k} and v_{k,r} share their groups: compute them once per (n, k')
    monkeypatch.setattr(
        verlinde, "_distance_exponent_groups", lambda n, k: groups(n, min(k, n - k))
    )
    for n in range(2, 17):
        for kp in range(1, n // 2 + 1):
            for g, partial in _element_sums(n, groups(n, kp), (2, 3, 7, 30)):
                for k in {kp, n - kp}:
                    if math.comb(n, k) <= 20_000:
                        expected = _integral(partial * n * (n - k) ** g, kp * n**g)
                        assert verlinde_number(VerlindeQuery(n - k, k, g)) == expected


def test_real_traces_are_sums_over_conjugates():
    for n in range(2, 41):
        units = [a for a in range(1, n // 2 + 1) if math.gcd(a, n) == 1]
        traces = real_traces(n)
        assert traces[0] == len(units)
        assert len(traces) == 2 * len(units) - 1
        for j, trace in enumerate(traces):
            assert trace == round(sum((2 * math.cos(2 * math.pi * a / n)) ** j for a in units))


@pytest.mark.parametrize(
    "corrupt",
    [lambda groups: groups[1:], lambda groups: ((groups[0][0], groups[0][1] + 1), *groups[1:])],
    ids=["missing-group", "other-multiplicity"],
)
def test_galois_check_can_fail(monkeypatch, capsys, corrupt):
    """An orbit that is not made of whole groups of one multiplicity is a bug: exit 1."""
    groups = _distance_exponent_groups
    monkeypatch.setattr(verlinde, "_distance_exponent_groups", lambda n, k: corrupt(groups(n, k)))
    with pytest.raises(ArithmeticBugError, match="Galois check failed"):
        verlinde_number(VerlindeQuery(4, 9, 2))
    assert main(["verlinde", "4", "9", "2"]) == 1
    assert "Galois check failed" in capsys.readouterr().err


def _brute_force_groups(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The distance groups of every k'-subset of Z/n containing 0, one subset at a time.

    The grouping the package used before it walked necklaces: no rotation
    classes, so it checks the necklace walk and its period weights.
    """
    kp = min(k, n - k)
    half = n // 2
    cyclic = [min(d, n - d) for d in range(n)]
    full_row = [0] + [2 * kp] * half
    if n % 2 == 0:
        full_row[half] = kp
    groups: Counter[tuple[int, ...]] = Counter()
    for rest in combinations(range(1, n), kp - 1):
        subset = (0, *rest)
        counts = full_row.copy()
        for i, s in enumerate(subset):
            for t in subset[i + 1 :]:
                counts[cyclic[t - s]] -= 2
        groups[tuple(counts[1:])] += 1
    return tuple(sorted(groups.items()))


@pytest.mark.parametrize("n", range(2, 15))
def test_necklace_groups_equal_brute_force_small(n):
    for k in range(1, n):
        assert _distance_exponent_groups(n, k) == _brute_force_groups(n, k), k


@pytest.mark.parametrize("n,k", [(16, 8), (18, 9), (20, 9), (20, 10)])
def test_necklace_groups_equal_brute_force_balanced(n, k):
    assert _distance_exponent_groups(n, k) == _brute_force_groups(n, k)


def test_necklace_group_counts_at_twenty():
    groups = _distance_exponent_groups(20, 10)
    assert len(groups) == 2_377
    assert sum(multiplicity for _, multiplicity in groups) == math.comb(19, 9) == 92_378


def test_gap_necklaces_do_not_recurse():
    """1,000 gaps summing to 1,001 form one necklace; a recursive walk would go 1,000 calls deep."""
    necklaces = [(list(positions), period) for positions, period in _gap_necklaces(1_001, 1_000)]
    assert necklaces == [(list(range(1_000)), 1_000)]


def test_gap_necklaces_weigh_their_period():
    """(1, 2, 1, 2) has period 2: of its four rotations only two differ."""
    necklaces = {tuple(positions): period for positions, period in _gap_necklaces(6, 4)}
    assert necklaces == {(0, 1, 2, 3): 4, (0, 1, 2, 4): 4, (0, 1, 3, 4): 2}


def test_su2_fusion_ring_oracle():
    assert _su2_fusion_count(1, 2) == 4 and _su2_fusion_count(2, 2) == 10
    for k in range(1, 9):
        for g in range(2, 7):
            expected = _su2_fusion_count(k, g)
            assert verlinde_number(VerlindeQuery(2, k, g)) == expected
            # v_{2,k} again, now as the partner derived from v_{k,2}
            assert check_rank_level_symmetry(VerlindeQuery(k, 2, g)).partner_value == expected


def test_fusion_count_values():
    expected = {
        (2, 1, 2): 4,
        (2, 2, 2): 10,
        (3, 2, 4): 4050,
        (3, 3, 3): 4390,
        (4, 3, 2): 896,
        (5, 2, 2): 350,
        (4, 4, 2): 4680,
    }
    assert {case: fusion_count(*case) for case in expected} == expected
    for k in range(1, 6):
        assert fusion_count(1, k, 3) == 1
        assert fusion_count(2, k, 3) == _su2_fusion_count(k, 3)


def test_fusion_ring_oracle():
    """Kac-Walton fusion counts equal the exact sum for every rank, r+k <= 8 and g <= 4."""
    for n in range(2, 9):
        for r in range(1, n):
            for g in range(2, 5):
                assert verlinde_number(VerlindeQuery(r, n - r, g)) == fusion_count(r, n - r, g)


@pytest.mark.parametrize("r,g", LEVEL_LAW_CASES)
def test_level_polynomial_laws(r, g):
    """v_{r,k} is a polynomial P(k) of degree D = (r^2-1)(g-1): the Hilbert polynomial.

    P(0) = 1, P vanishes at -1..-(2r-1), and Serre duality with K = Theta^(-2r)
    gives P(-k-2r) = (-1)^D P(k).  The laws tie values at different k, so at
    different n, fields Q(theta_n) and distance groups, and share nothing of
    the per-n sum.
    """
    degree, rows = level_differences(r, g)
    assert rows[degree + 1] == [0, 0]
    assert rows[degree][0] != 0
    assert level_polynomial(rows, degree, 0) == 1
    assert [level_polynomial(rows, degree, -j) for j in range(1, 2 * r)] == [0] * (2 * r - 1)
    for k, value in enumerate(rows[0], start=1):
        assert level_polynomial(rows, degree, -k - 2 * r) == (-1) ** degree * value


@pytest.mark.parametrize("g,volume", [(2, Fraction(1, 6)), (3, Fraction(1, 180)), (4, Fraction(1, 3780))])
def test_level_polynomial_leading_coefficient_su2(g, volume):
    """For r = 2 it is Witten's volume (-1)^g B_(2g-2) 2^(g-1) / (2g-2)!."""
    degree, rows = level_differences(2, g)
    assert Fraction(rows[degree][0], math.factorial(degree)) == volume


def test_frozen_values():
    assert verlinde_number(VerlindeQuery(2, 1, 2)) == 4
    assert verlinde_number(VerlindeQuery(2, 2, 2)) == 10
    for g in range(2, 6):
        assert verlinde_number(VerlindeQuery(1, 1, g)) == 1


def test_modified_frozen_values():
    assert modified_verlinde(VerlindeQuery(2, 2, 2)) == 40
    assert modified_verlinde(VerlindeQuery(1, 1, 2)) == 4
    assert modified_verlinde(VerlindeQuery(2, 1, 2)) == 9


def test_level_one_agreement():
    for r in range(1, 7):
        for g in range(2, 7):
            assert verlinde_number(VerlindeQuery(r, 1, g)) == level_one_oracle(r, g)


def test_symmetry_report_examples():
    report = check_rank_level_symmetry(VerlindeQuery(2, 1, 2))
    assert report.value == 4
    assert report.partner_value == 1
    assert report.symmetry_holds

    report = check_rank_level_symmetry(VerlindeQuery(3, 3, 2))
    assert report.value == report.partner_value
    assert report.symmetry_holds

    report = check_rank_level_symmetry(VerlindeQuery(3, 1, 2))
    assert report.value == 9
    assert report.symmetry_holds


def test_report_modified_value_consistent(verlinde_grid):
    report = check_rank_level_symmetry(VerlindeQuery(3, 2, 3))
    assert report.modified_value * 3**3 == 5**3 * report.value


def test_rank_level_symmetry_on_grid(verlinde_grid):
    for (r, k, g), value in verlinde_grid.items():
        partner = verlinde_grid[(k, r, g)]
        assert value * k**g == partner * r**g


def test_integrality_on_grid(verlinde_grid):
    for (r, k, g), value in verlinde_grid.items():
        assert isinstance(value, int)
        assert value >= 0
        modified = modified_verlinde(VerlindeQuery(r, k, g))
        assert isinstance(modified, int)
        assert modified >= 0


def test_integral_divides_exactly():
    value = _integral(6 * 10**700, 3)
    assert value == 2 * 10**700 and type(value) is int
    assert _integral(0, 5) == 0
    for num, den, message in [(7, 3, "not integral: 7/3"), (-6, 3, "not integral: -2")]:
        with pytest.raises(NotIntegralError) as info:
            _integral(num, den)
        assert str(info.value) == message
        assert info.value.value == Fraction(num, den)


def test_monotonic_in_genus(verlinde_grid):
    for n in range(3, 11):
        for r in range(1, n):
            for g in range(2, 5):
                assert verlinde_grid[(r, n - r, g + 1)] >= verlinde_grid[(r, n - r, g)]


def test_float_oracle_matches_exact():
    cases = [(2, 2, 2, 10), (1, 1, 3, 1), (4, 1, 2, 16), (3, 2, 4, None)]
    for r, k, g, expected in cases:
        exact = verlinde_number(VerlindeQuery(r, k, g))
        if expected is not None:
            assert exact == expected
        approx = dyadic(float_oracle(VerlindeQuery(r, k, g)))
        assert abs(approx - exact) / exact < 1e-6


def test_naive_float_enumeration_matches_exact():
    for r in range(1, 5):
        for k in range(1, 5):
            for g in (2, 3):
                exact = verlinde_number(VerlindeQuery(r, k, g))
                assert abs(_naive_float(r, k, g) - exact) / exact < 1e-6


def test_float_oracle_precision_floor():
    with pytest.raises(DomainError):
        float_oracle(VerlindeQuery(2, 1, 2), precision=10)


def test_float_oracle_precision_ceiling():
    # refused before any work: a million digits would run for minutes
    for precision in (10_001, 10**6):
        with pytest.raises(DomainError, match="precision must be <= 10000 digits"):
            float_oracle(VerlindeQuery(2, 1, 2), precision=precision)
    assert dyadic(float_oracle(VerlindeQuery(1, 1, 2), precision=10_000)) == 1


def test_float_oracle_higher_precision():
    value = dyadic(float_oracle(VerlindeQuery(2, 2, 2), precision=40))
    assert abs(value - 10) < Fraction(1, 10**30)


def test_two_sines_are_correct_to_their_width():
    """Every mantissa is 2*sin(pi*d/n) to within 2 units of its last bit, also near d = n.

    Width 3400 takes 29 doublings, whose error the guard bits must absorb.
    """
    cases = [(n, width) for n in (*range(2, 40), 97, 1000) for width in (60, 130, 400)]
    for n, width in cases + [(n, 3400) for n in (3, 8, 30, 97)]:
        with mpmath.workprec(width + 60):
            for d, (m, e) in enumerate(verlinde._two_sines(n, width)[1:], start=1):
                assert m.bit_length() == width
                exact = 2 * mpmath.sinpi(mpmath.mpf(d) / n)
                assert abs(mpmath.ldexp(m, e) / exact - 1) < mpmath.ldexp(1, 1 - width), (n, width, d)


def test_float_oracle_at_high_precision():
    """At 1000 digits the oracle is within 10^-1000 of v, relatively."""
    for r, k, g in ((2, 1, 2), (4, 4, 10), (3, 5, 3)):
        exact = verlinde_number(VerlindeQuery(r, k, g))
        approx = dyadic(float_oracle(VerlindeQuery(r, k, g), precision=1000))
        assert abs(approx - exact) / exact < Fraction(1, 10**1000)


def _float_grid():
    for n in range(2, 10):
        for r in range(1, n):
            for g in (2, 3, 4, 6, 10, 20, 40):
                yield VerlindeQuery(r, n - r, g)


def _nstr_exact(m: int, e: int) -> str:
    """mpmath.nstr(m * 2^e, 15), with no rounding on the way in.

    mpmath converts the integer part with str(), so a wide mantissa needs
    the int-to-str digit limit lifted.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with mpmath.workprec(max(m.bit_length(), 1)):
            return mpmath.nstr(mpmath.mpf((m, e)), 15)
    finally:
        sys.set_int_max_str_digits(limit)


def test_float_value_matches_mpmath_reference():
    """From 18 digits on, the printed value is that of the mpmath sum."""
    for query in _float_grid():
        for precision in (18, 20, 30, 40, 60):
            expected = mpmath.nstr(mpmath_float_oracle(query, precision), 15)
            assert dyadic_text(*float_oracle(query, precision)) == expected, (query, precision)


def test_float_value_at_low_precision_is_the_rounded_integer():
    """At 15-17 digits, where mpmath's own rounding reaches the printed digits, it is v rounded."""
    for query in _float_grid():
        expected = _nstr_exact(verlinde_number(query), 0)
        for precision in (15, 16, 17):
            assert dyadic_text(*float_oracle(query, precision)) == expected, (query, precision)


def test_float_oracle_rounds_a_tie_as_the_integer():
    """v = 5^22 = 2384185791015625 ends in a 5 at the 16th digit: half up, at every precision."""
    query = VerlindeQuery(5, 1, 22)
    assert verlinde_number(query) == 5**22
    for precision in (15, 16, 30):
        assert dyadic(float_oracle(query, precision)) == 5**22
        assert dyadic_text(*float_oracle(query, precision)) == "2.38418579101563e+15"


def _random_dyadics(rng: random.Random, count: int):
    for _ in range(count):
        bits = rng.choice((1, 2, 5, 20, 53, 60, 69, 70, 90, 130, 300))
        m = rng.getrandbits(bits) | 1 << (bits - 1)
        top = rng.choice((80, 400, 3600, 20000))
        yield m, rng.randint(-top, top) - bits
    # Exact decimal ties at the 16th digit (5^11 * 2^-11 = 5^22 / 10^11 = 23841.85791015625),
    # runs of nines that carry into a new leading digit, and both notations'
    # edges around 1e-5 and 1e15.
    for j in range(1, 40):
        for shift in range(-3, 4):
            for m in (5**j, 3 * 5**j, 10**j - 1, 2 * 10**j - 1):
                yield m, shift - j
    # Mantissas of 1,000 to 33,300 bits, as float_oracle returns at high --precision.
    # Every other one has e < 0 and e + bits > 3500: a value above 2^3500 with a fraction.
    for i in range(200):
        bits = rng.randint(1_000, 33_300)
        m = rng.getrandbits(bits) | 1 << (bits - 1)
        yield m, rng.randint(min(3_501 - bits, -1), -1) if i % 2 else rng.randint(-37_300, 12_000)


def test_dyadic_text_matches_nstr():
    for m, e in _random_dyadics(random.Random(20071), 12_000):
        assert dyadic_text(m, e) == _nstr_exact(m, e), (m, e)


def _half_up_text(m: int, e: int) -> str:
    """m * 2^e >= 10^15 to 15 significant digits, rounded half up, in nstr's e+N notation.

    Exact, through the decimal module: above 2^3500 nstr divides by a power
    of ten at 69 bits, truncating, so it is no oracle for ties there.
    """
    with decimal.localcontext() as context:
        context.prec = 5_000
        context.rounding = decimal.ROUND_HALF_UP
        head, exponent = format(decimal.Decimal(m) * decimal.Decimal(2) ** e, ".14e").split("e")
    head = head.rstrip("0")
    return (head + "0" if head.endswith(".") else head) + "e" + exponent


def test_dyadic_text_rounds_16th_digit_ties_near_2_to_the_3500():
    """x = T * 10^s with T of 16 digits ending in 5, and x -/+ 2^e, for log2(x) in 3480..3520."""
    rng = random.Random(20073)
    for size in range(3_480, 3_521):
        tie = rng.randrange(10**14, 10**15) * 10 + 5
        s = round((size - math.log2(tie)) / math.log2(10))
        for e in (-60, -1, 0, 7):
            exact = tie * 10**s << -e if e < 0 else tie * 5**s << s - e
            for offset in (-1, 0, 1):
                m = exact + offset
                expected = _nstr_exact(m, e) if e + m.bit_length() <= 3_500 else _half_up_text(m, e)
                assert dyadic_text(m, e) == expected, (size, e, offset)


def test_term_budget_refusal():
    with pytest.raises(TermBudgetError) as info:
        verlinde_number(VerlindeQuery(5, 5, 2), term_budget=10)
    assert "C(10,5) = 252 > 10" in str(info.value)


def test_query_validation():
    with pytest.raises(DomainError):
        VerlindeQuery(0, 1, 2)
    with pytest.raises(DomainError):
        VerlindeQuery(1, 0, 2)
    with pytest.raises(DomainError):
        VerlindeQuery(1, 1, 1)
