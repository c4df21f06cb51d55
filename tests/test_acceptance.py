"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

from thetacalc import elliptic_k3 as ek
from thetacalc import mukai as mk
from thetacalc import power_duality as pdl
from thetacalc.cli import main
from thetacalc.errors import NotIntegralError
from thetacalc.verlinde import (
    VerlindeQuery,
    float_oracle,
    modified_verlinde,
    verlinde_number,
)

from conftest import (
    GRID_GENERA,
    GRID_SUM_MAX,
    LEVEL_LAW_CASES,
    dyadic,
    evaluation_covector,
    fusion_count,
    level_differences,
    level_one_oracle,
    level_polynomial,
    subsets_colex,
)


def _report(number: int, description: str, failures: list[str]):
    verdict = "PASS" if not failures else "FAIL"
    print(f"[criterion {number:02d}] {verdict} - {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:10])


def test_criterion_01_level_one_verlinde():
    failures = []
    start = time.perf_counter()
    for r in range(2, 7):
        for g in range(2, 7):
            value = verlinde_number(VerlindeQuery(r, 1, g))
            if value != level_one_oracle(r, g):
                failures.append(f"v({r},1,{g}) = {value} != {r}^{g}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10:
        failures.append(f"took {elapsed:.1f}s >= 10s")
    _report(1, f"level-1 values equal r^g for r<=6, g<=6 ({elapsed:.2f}s)", failures)


def test_criterion_02_frozen_regression():
    failures = []
    value = verlinde_number(VerlindeQuery(2, 2, 2))
    modified = modified_verlinde(VerlindeQuery(2, 2, 2))
    # hand-derived subset sum: 8+4+8+8+4+8 = 40, prefactor 4/16
    if value != 10:
        failures.append(f"v(2,2,2) = {value} != 10")
    if modified != 40:
        failures.append(f"vt(2,2,2) = {modified} != 40")
    _report(2, "frozen v(2,2,2) = 10 and vt(2,2,2) = 40", failures)


def test_criterion_03_rank_level_symmetry():
    failures = []
    start = time.perf_counter()
    values = {}
    for n in range(2, GRID_SUM_MAX + 1):
        for r in range(1, n):
            for g in GRID_GENERA:
                values[(r, n - r, g)] = verlinde_number(VerlindeQuery(r, n - r, g))
    for (r, k, g), value in values.items():
        partner = values[(k, r, g)]
        if value * k**g != partner * r**g:
            failures.append(f"symmetry fails at ({r},{k},{g})")
        if modified_verlinde(VerlindeQuery(r, k, g)) != modified_verlinde(VerlindeQuery(k, r, g)):
            failures.append(f"modified symmetry fails at ({r},{k},{g})")
    # The same duality between two fusion-ring counts, which share no formula.
    for n in range(2, 9):
        for r in range(1, n):
            for g in range(2, 5):
                if fusion_count(r, n - r, g) * (n - r) ** g != fusion_count(n - r, r, g) * r**g:
                    failures.append(f"fusion symmetry fails at ({r},{n - r},{g})")
    # v_{r,k} as the polynomial P(k) of degree D = (r^2-1)(g-1) in the level:
    # these laws tie sums at different n, so they do not share the per-n formula.
    for r, g in LEVEL_LAW_CASES:
        degree, rows = level_differences(r, g)
        if rows[degree + 1] != [0, 0] or rows[degree][0] == 0:
            failures.append(f"v({r},k,{g}) is not of degree {degree} in k")
        if level_polynomial(rows, degree, 0) != 1:
            failures.append(f"P(0) != 1 for (r, g) = ({r},{g})")
        if any(level_polynomial(rows, degree, -j) for j in range(1, 2 * r)):
            failures.append(f"P(-1..-{2 * r - 1}) != 0 for (r, g) = ({r},{g})")
        for k, value in enumerate(rows[0], start=1):
            if level_polynomial(rows, degree, -k - 2 * r) != (-1) ** degree * value:
                failures.append(f"P(-{k}-{2 * r}) != (-1)^{degree} v({r},{k},{g})")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s >= 120s")
    _report(
        3,
        f"v(r,k)*k^g = v(k,r)*r^g on r+k<=10, g<=5, and for fusion counts on r+k<=8, g<=4; "
        f"level-polynomial laws for {len(LEVEL_LAW_CASES)} (r, g) ({elapsed:.2f}s)",
        failures,
    )


def test_criterion_04_integrality_battery(verlinde_grid):
    failures = []
    for (r, k, g), value in verlinde_grid.items():
        if not isinstance(value, int) or value < 0:
            failures.append(f"v({r},{k},{g}) = {value!r}")
        modified = modified_verlinde(VerlindeQuery(r, k, g))
        if not isinstance(modified, int) or modified < 0:
            failures.append(f"vt({r},{k},{g}) = {modified!r}")
    _report(4, "every v and vt on the grid is a non-negative integer", failures)


def test_criterion_05_float_exact_agreement(verlinde_grid):
    failures = []
    for (r, k, g), value in verlinde_grid.items():
        approx = dyadic(float_oracle(VerlindeQuery(r, k, g)))
        if abs(approx - value) / value >= 1e-6:
            failures.append(f"float mismatch at ({r},{k},{g}): {float(approx)} vs {value}")
    _report(5, "float and exact paths agree to 1e-6 relative on the grid", failures)


def test_criterion_06_wedge_duality_matrices():
    failures = []
    for n in range(0, 15):
        subsets = {k: subsets_colex(n, k) for k in range(0, n + 1)}
        matrices = {k: pdl.wedge_duality_matrix(n, k) for k in range(0, n + 1)}
        for k, matrix in matrices.items():
            if matrix.size != len(subsets[k]):
                failures.append(f"(n={n},k={k}) has size {matrix.size}")
            if any(s not in (-1, 1) for s in matrix.signs):
                failures.append(f"(n={n},k={k}) has entries outside -1,0,1")
            if matrix.determinant() not in (-1, 1):
                failures.append(f"(n={n},k={k}) determinant {matrix.determinant()}")
        for k, forward in matrices.items():
            # row i pairs with column size-1-i, which must be the complement
            # of its subset; the matrix of (n, n-k) has those columns as rows
            backward = matrices[n - k]
            sign = (-1) ** (k * (n - k))
            cols = subsets[n - k]
            back_rows = {t: j for j, t in enumerate(cols)}
            for i, s in enumerate(subsets[k]):
                comp = cols[forward.size - 1 - i]
                if set(s) | set(comp) != set(range(1, n + 1)):
                    failures.append(f"column of (n={n},k={k},S={s}) is not its complement")
                    break
                if forward.signs[i] != sign * backward.signs[back_rows[comp]]:
                    failures.append(f"transpose sign law fails at (n={n},k={k},S={s})")
                    break
    _report(6, "wedge matrices for n<=14 are signed permutations obeying the sign law", failures)


def _random_point(rng: random.Random):
    return (
        Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
    )


def _random_config(rng: random.Random, n: int):
    points = set()
    while len(points) < n:
        points.add(_random_point(rng))
    return sorted(points)


def _vanishing_config(rng: random.Random, model):
    n = len(model)
    if n == 3:  # three points on a random line
        slope = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        intercept = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        xs = rng.sample(range(-6, 7), 3)
        return [(Fraction(x), slope * x + intercept) for x in xs]
    if n == 4:  # section (x-a)(y-b) vanishes on an axis-aligned cross
        a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        y1, y2 = rng.sample(range(-6, 7), 2)
        x1, x2 = rng.sample(range(-6, 7), 2)
        return [(a, Fraction(y1)), (a, Fraction(y2)), (Fraction(x1), b), (Fraction(x2), b)]
    # six points on a degenerate conic: union of two non-parallel lines
    points = []
    slopes = rng.sample(range(-3, 4), 2)
    for slope in slopes:
        intercept = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        xs = rng.sample(range(-6, 7), 3)
        points += [(Fraction(x), slope * x + intercept) for x in xs]
    return points


def test_criterion_07_theta_divisor_oracle():
    failures = []
    models = {
        3: (((0, 0), (1, 0), (0, 1)), 1),
        4: (((0, 0), (1, 0), (0, 1), (1, 1)), 2),
        6: (((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)), 3),
    }
    for n, (model, k) in models.items():
        rng = random.Random(1234 + n)
        signs = pdl.wedge_duality_matrix(n, k).signs
        seen_vanishing = seen_generic = 0
        trials = 0
        while trials < 200:
            if trials % 8 == 7:
                points = _vanishing_config(rng, model)
                if len(set(points)) != n:
                    continue
            else:
                points = _random_config(rng, n)
            trials += 1
            z_points, w_points = points[:k], points[k:]
            rows = [list(evaluation_covector(p, model)) for p in points]
            det = pdl.det_exact(rows)
            alpha = pdl.wedge_coefficients(rows[:k], n, k)
            beta = pdl.wedge_coefficients(rows[k:], n, n - k)
            pairing = sum(a * s * b for a, s, b in zip(alpha, signs, reversed(beta)))
            vanishes = pdl.theta_vanishes(z_points, w_points, model)
            if vanishes != (pairing == 0):
                failures.append(f"n={n}: oracle mismatch at {points}")
            if det != pairing:
                failures.append(f"n={n}: det {det} != pairing {pairing} at {points}")
            if det != 0:
                seen_generic += 1
            else:
                seen_vanishing += 1
        if seen_vanishing == 0 or seen_generic == 0:
            failures.append(f"n={n}: both branches must be exercised")
    _report(7, "det = wedge pairing exactly on 200 configurations per model", failures)


def test_criterion_08_mukai_suite():
    failures = []
    ab = mk.lattice_preset("abelian_pp")
    rng = random.Random(88)

    def vec(rank, c, point, lattice=ab):
        return mk.MukaiVector(rank, mk.NSClass(lattice, (c,)), point)

    for _ in range(300):  # (s1) symmetry under swap
        v = vec(rng.randint(0, 4), rng.randint(-4, 4), rng.randint(-3, 3))
        w = vec(rng.randint(0, 4), rng.randint(-4, 4), rng.randint(-3, 3))
        if mk.dv(v) >= 0 and mk.dv(w) >= 0 and mk.chi_k3(v, w) != mk.chi_k3(w, v):
            failures.append(f"chi_k3 asymmetric for {v}, {w}")

    pairs = 0
    while pairs < 1000:  # Fourier-Mukai invariance of the form
        v = vec(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
        w = vec(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
        pairs += 1
        if mk.mukai_pairing(mk.fm_transform(v), mk.fm_transform(w)) != mk.mukai_pairing(v, w):
            failures.append(f"fm breaks the pairing for {v}, {w}")

    checked = 0
    while checked < 100:  # Albanese-minus equals Albanese-plus on transforms
        v = vec(1, rng.randint(-4, 4), rng.randint(-3, 3))
        w0, cw = rng.randint(1, 3), rng.randint(-4, 4)
        w = vec(w0, cw, 2 * v.c1.coords[0] * cw - v.point * w0)
        if mk.mukai_pairing(v, w) != 0 or mk.dv(v) + mk.dv(w) < 3:
            continue
        checked += 1
        try:
            minus = mk.chi_abelian(v, w, "albanese_minus")
            plus_on_hats = mk.chi_abelian(mk.fm_transform(v), mk.fm_transform(w), "albanese_plus")
        except NotIntegralError:
            continue
        if minus != plus_on_hats:
            failures.append(f"variant mismatch for {v}, {w}")

    d2 = vec(1, 1, 0)
    if mk.chi_abelian(d2, d2, "kummer") != 1:
        failures.append("kummer value at dv = dw = 2 is not 1")

    quadric = mk.NSLattice(((8,),), name="net_of_quadrics")
    w = vec(1, 0, -1, quadric)
    v = vec(2, 1, 2, quadric)
    if mk.mukai_pairing(w, w) != 2:
        failures.append("<w,w> != 2")
    if mk.mukai_pairing(v, v) != 0:
        failures.append("<v,v> != 0")
    if mk.mukai_pairing(v, w) != 0:
        failures.append("<v,w> != 0")
    _report(8, "Mukai pairing, transform invariance and frozen example values", failures)


def test_criterion_09_elliptic_identities():
    failures = []
    for r in range(1, 7):
        for a in range(1, 41):
            vector = ek.normalized_vector(r, a).vector
            if mk.mukai_pairing(vector, vector) != 2 * a - 2:
                failures.append(f"self-pairing fails at (r={r},a={a})")
    for r in range(2, 8):
        for s in range(1, 8 - r + 1):
            total = r + s
            for a_plus_b in range(total + 2, 81, total):
                a = a_plus_b // 2
                b = a_plus_b - a
                theta = ek.theta_bundle_class(r, s, a, b)
                if theta.chi != a + b:
                    failures.append(f"chi(L) != a+b at ({r},{s},{a},{b})")
                nu = ek.compute_nu(r, s, a, b).nu
                strong = -nu > 1
                if strong != (a + b >= total**2 + 2):
                    failures.append(f"strength equivalence fails at ({r},{s},{a},{b})")
                if strong != ((2 * a - 2) + (2 * b - 2) >= 2 * total**2):
                    failures.append(f"pairing-sum equivalence fails at ({r},{s},{a},{b})")
                if strong:
                    dims = ek.strange_duality_dims(r, s, a, b)
                    if dims.dim_a != dims.dim_b:
                        failures.append(f"dimension mismatch at ({r},{s},{a},{b})")
    frozen = ek.strange_duality_dims(2, 3, 12, 15)
    theta = frozen.theta
    if theta.nu != -2 or theta.L.coords != (5, 10) or theta.chi != 27:
        failures.append(f"frozen case wrong: {frozen}")
    expected = 17383860
    by_product = 1
    for i in range(1, 13):  # independent multiplicative route for C(27,12)
        by_product = by_product * (15 + i) // i
    predicted = (frozen.dim_a, frozen.dim_b)
    if predicted != (expected, expected) or by_product != expected:
        failures.append(f"C(27,12) mismatch: {predicted} vs {by_product}")
    _report(9, "elliptic self-pairings, chi(L) = a+b, dims and strength equivalences", failures)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    failures = []
    commands = [
        ["verlinde", "2", "1", "2"],
        ["verlinde", "2", "2", "2", "--modified", "--check-symmetry", "--float-oracle"],
        ["duality", "wedge", "3", "1"],
        ["duality", "sym", "2", "2"],
        ["elliptic", "normalize", "2", "3", "-1"],
        ["elliptic", "nu", "2", "3", "12", "15"],
        ["elliptic", "theta-class", "2", "3", "12", "15"],
        ["elliptic", "dims", "2", "3", "12", "15"],
    ]
    for argv in commands:
        code_a = main(argv)
        out_a = capsys.readouterr()
        code_b = main(argv)
        out_b = capsys.readouterr()
        if (code_a, out_a.out) != (code_b, out_b.out) or code_a != 0:
            failures.append(f"non-deterministic or failing output for {argv}")

    code = main(["verlinde", "2", "1", "2"])
    payload = json.loads(capsys.readouterr().out)
    if not (payload["r"] == 2 and payload["k"] == 1 and payload["g"] == 2 and payload["value"] == "4"):
        failures.append(f"documented fields wrong: {payload}")

    code = main(["elliptic", "dims", "3", "3", "19", "19"])
    payload = json.loads(capsys.readouterr().out)
    if not isinstance(payload["dim_a"], str) or int(payload["dim_a"]) != math.comb(38, 19):
        failures.append("big integers must be serialized as decimal strings")

    code = main(["elliptic", "nu", "2", "2", "10", "10"])
    err = capsys.readouterr().err
    if code != 2 or "divisibility: 4 does not divide 18" not in err:
        failures.append("divisibility error must exit 2 with the documented message")

    export = tmp_path / "wedge.json"
    code = main(["duality", "wedge", "3", "1", "--export", str(export)])
    capsys.readouterr()
    entries = json.loads(export.read_text())["entries"]
    if code != 0 or entries != [[0, 2, 1], [1, 1, -1], [2, 0, 1]]:
        failures.append(f"export triplets wrong: {entries}")

    if main(["frobnicate"]) != 64:
        failures.append("unknown subcommand must exit 64")
    capsys.readouterr()
    _report(10, "CLI output is deterministic with documented fields and exit codes", failures)
