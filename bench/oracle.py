"""Correctness checks that do not use thetacalc's code paths.

Every value is recomputed here from its definition: Verlinde numbers by an
``mpmath`` sum over this module's own subset enumeration (folded by
sin(pi*d/n) = sin(pi*(n-d)/n), which the package does not do), determinants
by this module's own fraction-free elimination, and the Mukai and elliptic
quantities from their closed formulas.  Outputs in any of the three formats
are read back into a key -> cell map, where a cell is a string value as
printed, or the compact JSON of any other value.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import mpmath


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


def _cell(value) -> str:
    return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))


def parse_output(argv, stdout: str) -> dict[str, str]:
    """Key -> cell map of a successful query's stdout in its --format."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "json":
        return {key: _cell(value) for key, value in json.loads(stdout).items()}
    if fmt == "markdown":
        lines = stdout.rstrip("\n").split("\n")
        if lines[:2] != ["| key | value |", "| --- | --- |"]:
            raise Mismatch("markdown header missing")
        cells = {}
        for line in lines[2:]:
            if not (line.startswith("| ") and line.endswith(" |")):
                raise Mismatch(f"bad markdown row {line[:80]!r}")
            key, value = line[2:-2].split(" | ", 1)
            cells[key] = value
        return cells
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["key", "value"]:
        raise Mismatch("csv header missing")
    return {key: value for key, value in rows[1:]}


def _expect(cells: dict[str, str], expected: dict) -> None:
    for key, value in expected.items():
        want = _cell(value)
        if cells.get(key) != want:
            got = cells.get(key)
            raise Mismatch(f"{key}: got {got[:80] if got else got!r}, want {want[:80]!r}")


# -- Verlinde ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _folded_groups(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """k-subsets of Z/n grouped by how many cross pairs sit at each folded distance."""
    groups: Counter[tuple[int, ...]] = Counter()
    half = n // 2
    for subset in combinations(range(n), k):
        inside = [False] * n
        for s in subset:
            inside[s] = True
        counts = [0] * (half + 1)
        for s in subset:
            for t in range(n):
                if not inside[t]:
                    d = abs(s - t)
                    counts[min(d, n - d)] += 1
        groups[tuple(counts[1:])] += 1
    return tuple(groups.items())


def _verlinde_float(r: int, k: int, g: int, dps: int):
    n = r + k
    with mpmath.workdps(dps):
        sines = [2 * mpmath.sinpi(mpmath.mpf(m) / n) for m in range(1, n // 2 + 1)]
        total = mpmath.mpf(0)
        for counts, mult in _folded_groups(n, k):
            term = mpmath.mpf(mult)
            for sine, c in zip(sines, counts):
                if c:
                    term *= sine ** (c * (g - 1))
            total += term
        return total * (mpmath.mpf(r) / n) ** g


@lru_cache(maxsize=None)
def verlinde_value(r: int, k: int, g: int) -> int:
    """v_{r,k} in genus g, rounded from a sum carried to 20 digits beyond its size."""
    rough = _verlinde_float(r, k, g, 20)
    digits = int(mpmath.log10(rough)) + 1 if rough >= 1 else 1
    exact = _verlinde_float(r, k, g, digits + 20)
    with mpmath.workdps(digits + 20):
        value = int(mpmath.nint(exact))
        if abs(exact - value) > mpmath.mpf("1e-6"):
            raise Mismatch(f"reference sum for ({r},{k},{g}) is not near an integer")
    return value


def _check_verlinde(q, cells: dict[str, str]) -> None:
    r, k, g = q.params["r"], q.params["k"], q.params["g"]
    value = verlinde_value(r, k, g)
    _expect(cells, {"r": r, "k": k, "g": g, "value": str(value), "formula": "verlinde_number"})
    if "--modified" in q.argv:
        # vt = ((r+k)^g / r^g) v
        num = (r + k) ** g * value
        if num % r**g:
            raise Mismatch("modified value is not integral")
        _expect(cells, {"modified_value": str(num // r**g)})
    if "--check-symmetry" in q.argv:
        # v_{r,k} k^g = v_{k,r} r^g
        if (value * k**g) % r**g:
            raise Mismatch("partner value is not integral")
        _expect(cells, {"partner_value": str(value * k**g // r**g), "symmetry_holds": True})
    if "--float-oracle" in q.argv:
        got = float(cells.get("float_value", "nan"))
        if not math.isclose(got, float(value), rel_tol=1e-12):
            raise Mismatch(f"float_value {got} differs from {value}")


# -- power duality ------------------------------------------------------------


def _colex(n: int, k: int) -> list[tuple[int, ...]]:
    return sorted(combinations(range(1, n + 1), k), key=lambda s: s[::-1])


def _permutation_sign(perm: list[int]) -> int:
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        length, i = 0, start
        while not seen[i]:
            seen[i], i, length = True, perm[i], length + 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _check_wedge(q, cells: dict[str, str]) -> None:
    n, k = q.params["n"], q.params["k"]
    size = math.comb(n, k)
    _expect(cells, {"n": n, "k": k, "size": str(size), "index_order": "colex",
                    "formula": "wedge_complement_pairing"})
    entries = json.loads(cells["entries"])
    cols = {t: j for j, t in enumerate(_colex(n, n - k))}
    perm, signs = [], []
    for i, s in enumerate(_colex(n, k)):
        row, col, sign = entries[i]
        complement = tuple(x for x in range(1, n + 1) if x not in s)
        if row != i or col != cols[complement] or sign not in (1, -1):
            raise Mismatch(f"entry {i} is {entries[i]}, not the complement pairing")
        perm.append(col)
        signs.append(sign)
    if len(entries) != size:
        raise Mismatch(f"{len(entries)} entries for size {size}")
    determinant = _permutation_sign(perm) * math.prod(signs)
    _expect(cells, {"determinant": str(determinant)})
    if "export" in q.params:
        exported = json.loads(open(q.params["export"]).read())
        if exported != {"n": n, "k": k, "index_order": "colex", "entries": entries}:
            raise Mismatch("exported matrix differs from the printed one")
        _expect(cells, {"exported": q.params["export"]})


def _check_sym(q, cells: dict[str, str]) -> None:
    wdim, n = q.params["wdim"], q.params["n"]
    monomials = json.loads(cells["monomials"])
    want = sorted((tuple(a) for a in monomials), reverse=True)
    if (
        [tuple(a) for a in monomials] != want
        or len(set(want)) != math.comb(wdim + n - 1, n)
        or any(len(a) != wdim or sum(a) != n or min(a) < 0 for a in want)
    ):
        raise Mismatch("monomials are not the lex-descending degree-n basis")
    diagonal = [
        str(math.factorial(n) // math.prod(math.factorial(e) for e in a)) for a in want
    ]
    _expect(cells, {"w_dim": wdim, "n": n, "size": str(len(want)), "diagonal": diagonal,
                    "full_rank": True, "formula": "symmetric_power_pairing"})


def determinant(rows) -> Fraction:
    """Bareiss elimination on the rows scaled to integers."""
    scale = Fraction(1)
    m = []
    for row in rows:
        lcm = math.lcm(*(Fraction(x).denominator for x in row))
        scale *= lcm
        m.append([int(Fraction(x) * lcm) for x in row])
    n, sign, prev = len(m), 1, 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot], sign = m[pivot], m[c], -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
        prev = m[c][c]
    return Fraction(sign * m[n - 1][n - 1], 1) / scale


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _check_theta(q, cells: dict[str, str]) -> None:
    model, z, w = q.params["model"], q.params["Z"], q.params["W"]
    rows = [[x**i * y**j for i, j in model] for x, y in z + w]
    det = _frac(determinant(rows))
    _expect(cells, {
        "model": [list(m) for m in model],
        "Z": [[_frac(x), _frac(y)] for x, y in z],
        "W": [[_frac(x), _frac(y)] for x, y in w],
        "vanishes": det == "0",
        "determinant": det,
        # Laplace expansion along the Z rows: the wedge pairing is the determinant.
        "pairing": det,
        "formula": "theta_divisor_membership",
    })


# -- Mukai and elliptic K3 ----------------------------------------------------

# Gram matrices of the two presets used: k3_elliptic (sigma, f) and abelian_pp.
K3_GRAM = ((-2, 1), (1, 0))
AB_GRAM = ((2,),)
ABELIAN_VARIANTS = {
    "s2": "albanese_plus", "s3": "albanese_minus", "s4": "kummer",
    "albanese_plus": "albanese_plus", "albanese_minus": "albanese_minus", "kummer": "kummer",
}
# Vectors are tuples (rank, *c1, point).


def _dot(gram, u, v) -> int:
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def _pairing(gram, v, w) -> int:
    return _dot(gram, v[1:-1], w[1:-1]) - v[0] * w[-1] - v[-1] * w[0]


def half_dim(gram, v) -> int:
    """d_v = <v,v>/2 + 1, half the dimension of the moduli space."""
    return _pairing(gram, v, v) // 2 + 1


def _vector_cells(v) -> dict:
    return {"rank": str(v[0]), "c1": [str(x) for x in v[1:-1]], "point": str(v[-1])}


def vector_spec(v) -> str:
    """The CLI form rank:c1,c2,...:point of a vector tuple."""
    return f"{v[0]}:{','.join(map(str, v[1:-1]))}:{v[-1]}"


def _fm(v):
    return (v[-1], *(-x for x in v[1:-1]), v[0])


def chi_abelian(v, w, variant: str) -> Fraction | None:
    """Theta Euler characteristic on abelian-surface moduli; None where undefined."""
    variant = ABELIAN_VARIANTS[variant]
    if variant == "albanese_minus":
        v, w, variant = _fm(v), _fm(w), "albanese_plus"
    a, b = half_dim(AB_GRAM, v), half_dim(AB_GRAM, w)
    if a + b < 3:
        return None
    binom = math.comb(a + b - 2, a - 1)
    if variant == "albanese_plus":
        c = w[0] * v[1] + v[0] * w[1]
        return Fraction(2 * c * c * binom, 2 * (a + b - 2))
    return Fraction((a - 1) ** 2 * binom, a + b - 2)


def _check_mukai_pair(q, cells):
    v, w = q.params["v"], q.params["w"]
    pairing = _pairing(K3_GRAM, v, w)
    _expect(cells, {"preset": "k3_elliptic", "v": vector_spec(v), "w": vector_spec(w),
                    "pairing": str(pairing), "chi_tensor": str(-pairing),
                    "formula": "mukai_pairing"})


def _check_mukai_chi_k3(q, cells):
    v, w = q.params["v"], q.params["w"]
    a, b = half_dim(K3_GRAM, v), half_dim(K3_GRAM, w)
    _expect(cells, {"d_v": str(a), "d_w": str(b), "value": str(math.comb(a + b, a)),
                    "formula": "chi_k3_binomial"})


_VARIANT_FORMULA = {"albanese_plus": "chi_albanese_det", "albanese_minus": "chi_albanese_fm_det",
                    "kummer": "chi_kummer"}


def _check_mukai_chi_abelian(q, cells):
    v, w = q.params["v"], q.params["w"]
    variant = ABELIAN_VARIANTS[q.params["variant"]]
    value = chi_abelian(v, w, variant)
    if value is None or value.denominator != 1:
        raise Mismatch(f"reference value {value} is not an integer")
    if variant == "kummer":
        _expect(cells, {"c1_proportional": True})  # rank-1 lattice: always proportional
    _expect(cells, {"preset": "abelian_pp", "variant": variant, "value": str(value),
                    "formula": _VARIANT_FORMULA[variant]})


def _check_mukai_fm(q, cells):
    v = q.params["v"]
    _expect(cells, {"preset": "abelian_pp", "v": vector_spec(v), "transform": _vector_cells(_fm(v)),
                    "pairing_preserved": True, "formula": "fourier_mukai_cohomological"})


def _check_mukai_conjecture(q, cells):
    v, w, h = q.params["v"], q.params["w"], q.params["H"]

    def positive(x, effective):
        return x[0] > 0 or (x[0] == 0 and effective and _pairing(K3_GRAM, x, x) not in (0, 4))

    orthogonal = _pairing(K3_GRAM, v, w) == 0
    v_prim, w_prim = math.gcd(*v) == 1, math.gcd(*w) == 1
    v_pos, w_pos = positive(v, q.params["v_eff"]), positive(w, q.params["w_eff"])
    c1 = tuple(w[0] * a + v[0] * b for a, b in zip(v[1:-1], w[1:-1]))
    slope = _dot(K3_GRAM, c1, h) > 0
    _expect(cells, {
        "H": f"{h[0]},{h[1]}", "orthogonal": orthogonal, "v_primitive": v_prim,
        "w_primitive": w_prim, "v_positive": v_pos, "w_positive": w_pos,
        "slope_condition": slope,
        "applicable": orthogonal and v_prim and w_prim and v_pos and w_pos and slope,
        "formula": "strange_duality_hypotheses",
    })


def _check_elliptic_normalize(q, cells):
    r, k, p = q.params["r"], q.params["k"], q.params["p"]
    a = k - r * p
    _expect(cells, {"r": r, "k": k, "p": p, "twists": str(1 - r - p), "a": str(a),
                    "vector": _vector_cells((r, 1, a - r * (r - 1), 1 - r)),
                    "formula": "fiber_twist_normalization"})


def _nu(p) -> int:
    total = p["r"] + p["s"]
    return (total - 2) - (p["a"] + p["b"] - 2) // total


def _check_elliptic_nu(q, cells):
    p = q.params
    nu = _nu(p)
    total = p["r"] + p["s"]
    _expect(cells, {"nu": str(nu), "divisible": True, "nu_strong": -nu > 1,
                    "chi_pair": str(p["a"] + p["b"] - 2 - total * (total - 2)),
                    "formula": "fiber_twist_exponent"})


def _check_elliptic_theta_class(q, cells):
    p = q.params
    nu, total = _nu(p), p["r"] + p["s"]
    _expect(cells, {"nu": str(nu), "L": {"sigma": str(total), "fiber": str(2 * total - 2 - nu)},
                    "m_exponent": "1", "chi_L": str(p["a"] + p["b"]), "hilb_points": str(p["a"]),
                    "formula": "theta_line_bundle_class"})


def _check_elliptic_dims(q, cells):
    p = q.params
    r, s, a, b = p["r"], p["s"], p["a"], p["b"]
    nu = _nu(p)
    dim_a, dim_b = math.comb(a + b, a), math.comb(a + b, b)
    applies = r >= 2 and s >= 2 and (2 * a - 2) + (2 * b - 2) >= 2 * (r + s) ** 2 and nu < -1
    _expect(cells, {"chi_L": str(a + b), "dim_a": str(dim_a), "dim_b": str(dim_b),
                    "equal": dim_a == dim_b, "corollary_applies": applies,
                    "formula": "strange_duality_dimensions"})


CHECKS = {
    "verlinde": _check_verlinde,
    "wedge": _check_wedge,
    "sym": _check_sym,
    "theta": _check_theta,
    "mukai-pair": _check_mukai_pair,
    "mukai-chi-k3": _check_mukai_chi_k3,
    "mukai-chi-abelian": _check_mukai_chi_abelian,
    "mukai-fm": _check_mukai_fm,
    "mukai-conjecture": _check_mukai_conjecture,
    "elliptic-normalize": _check_elliptic_normalize,
    "elliptic-nu": _check_elliptic_nu,
    "elliptic-theta-class": _check_elliptic_theta_class,
    "elliptic-dims": _check_elliptic_dims,
}


def check(q, code: int, stdout: str, stderr: str) -> None:
    """Raise Mismatch unless the query's exit code and output are right."""
    if code != q.expect_code:
        raise Mismatch(f"exit code {code}, expected {q.expect_code}: {stderr.strip()[-200:]}")
    if q.kind == "refusal":
        if stdout or not stderr.strip() or "Traceback" in stderr:
            raise Mismatch("a refusal must print only an error message on stderr")
        return
    if stderr:
        raise Mismatch(f"unexpected stderr: {stderr.strip()[-200:]}")
    try:
        cells = parse_output(q.argv, stdout)
    except (ValueError, IndexError) as exc:
        raise Mismatch(f"unreadable output: {exc}") from exc
    CHECKS[q.kind](q, cells)
