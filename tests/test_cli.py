from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetacalc import cli
from thetacalc.cli import FORMATS, _Blocks, _json_text, _write, main
from thetacalc.errors import (
    ArithmeticBugError,
    DomainError,
    TermBudgetError,
    ThetaCalcError,
    check_budget,
)
from thetacalc.verlinde import VerlindeQuery, verlinde_number

from conftest import subsets_colex

GOLDEN_DIR = Path(__file__).parent / "golden"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _check_golden(name: str, text: str):
    path = GOLDEN_DIR / name
    if os.environ.get("THETACALC_UPDATE_GOLDEN"):
        path.write_text(text)
    assert path.read_text() == text


def test_verlinde_basic(capsys):
    code, out, err = _run(capsys, "verlinde", "2", "1", "2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["r"] == 2 and payload["k"] == 1 and payload["g"] == 2
    assert payload["value"] == "4"
    _check_golden("verlinde_2_1_2.json", out)


def test_verlinde_full_flags(capsys):
    code, out, _ = _run(
        capsys, "verlinde", "2", "2", "2", "--modified", "--check-symmetry", "--float-oracle"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "10"
    assert payload["modified_value"] == "40"
    assert payload["partner_value"] == "10"
    assert payload["symmetry_holds"] is True
    _check_golden("verlinde_2_2_2_full.json", out)


def test_big_integers_are_strings(capsys):
    code, out, _ = _run(capsys, "verlinde", "3", "1", "5")
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == "243"
    assert isinstance(payload["value"], str)


@pytest.mark.parametrize(
    "argv, key, expected",
    [
        (
            ["verlinde", "2", "3", "20000"],
            "value",
            lambda: verlinde_number(VerlindeQuery(2, 3, 20000)),
        ),
        (
            ["elliptic", "dims", "2", "3", "10002", "10000"],
            "dim_a",
            lambda: math.comb(20002, 10002),
        ),
    ],
    ids=["verlinde", "elliptic-dims"],
)
def test_large_results_printed_in_full(capsys, argv, key, expected):
    # both results have more digits than Python's default int-to-str limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    digits = json.loads(out)[key]
    assert len(digits) > 4300
    if limit:
        assert sys.get_int_max_str_digits() == limit  # lifted only while printing
        sys.set_int_max_str_digits(0)
    try:
        assert digits == str(expected())
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_large_rational_results_printed_in_full(capsys, tmp_path):
    # det [[1, x^5], [1, 1]] = 1 - x^5 is 5000 nines, negated, for x = 10^1000
    x = 10**1000
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"model": [[0, 0], [5, 0]], "Z": [[f"{x}/1", 0]], "W": [[1, 0]]}))
    code, out, err = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["determinant"] == payload["pairing"] == "-" + "9" * 5000


def test_output_is_deterministic(capsys):
    first = _run(capsys, "elliptic", "dims", "2", "3", "12", "15")
    second = _run(capsys, "elliptic", "dims", "2", "3", "12", "15")
    assert first == second


def test_mukai_pair(capsys):
    code, out, _ = _run(
        capsys, "--lattice", "abelian_pp", "mukai", "pair", "--v", "1:1:0", "--w", "1:2:4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairing"] == "0"
    assert payload["chi_tensor"] == "0"
    _check_golden("mukai_pair.json", out)


def test_mukai_chi_k3(capsys):
    code, out, _ = _run(
        capsys, "--lattice", "abelian_pp", "mukai", "chi-k3", "--v", "1:1:0", "--w", "1:2:2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["d_v"] == "2" and payload["d_w"] == "3"
    assert payload["value"] == "10"
    _check_golden("mukai_chi_k3.json", out)


def test_mukai_chi_abelian_variants(capsys):
    code, out, _ = _run(
        capsys,
        "--lattice", "abelian_pp",
        "mukai", "chi-abelian", "--v", "1:1:0", "--w", "1:2:4", "--variant", "s2",
    )
    assert code == 0
    assert json.loads(out)["value"] == "9"
    _check_golden("mukai_chi_abelian_s2.json", out)

    code, out, _ = _run(
        capsys,
        "--lattice", "abelian_pp",
        "mukai", "chi-abelian", "--v", "1:1:0", "--w", "1:1:0", "--variant", "s4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1"
    assert payload["c1_proportional"] is True
    _check_golden("mukai_chi_abelian_s4.json", out)


def test_variant_aliases_agree_with_mukai(capsys):
    from thetacalc import mukai
    from thetacalc.cli import COMMANDS

    choices = COMMANDS["mukai"][2]["chi-abelian"][1]["--variant"]["choices"]
    assert choices == tuple(mukai.ABELIAN_VARIANTS)
    printed = {}
    for alias in choices:
        code, out, _ = _run(
            capsys,
            "--lattice", "abelian_pp",
            "mukai", "chi-abelian", "--v", "1:1:0", "--w", "1:2:4", "--variant", alias,
        )
        assert code == 0
        payload = json.loads(out)
        printed[alias] = (payload["variant"], payload["formula"])
    for alias, variant in mukai.ABELIAN_VARIANTS.items():
        assert printed[alias] == printed[variant] and printed[variant][0] == variant
    assert len(set(printed.values())) == 3


def test_mukai_fm(capsys):
    code, out, _ = _run(capsys, "--lattice", "abelian_pp", "mukai", "fm", "--v", "1:0:-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["transform"] == {"rank": "-1", "c1": ["0"], "point": "1"}
    assert payload["pairing_preserved"] is True
    _check_golden("mukai_fm.json", out)


def test_mukai_conjecture(capsys):
    code, out, _ = _run(
        capsys,
        "mukai", "conjecture", "--v", "2:1,3:-1", "--w", "1:1,-2:0", "--H", "1,4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["orthogonal"] is True
    assert payload["applicable"] is True
    _check_golden("mukai_conjecture.json", out)


def test_duality_wedge_with_export(capsys, tmp_path):
    target = tmp_path / "m.json"
    code, out, _ = _run(capsys, "duality", "wedge", "3", "1", "--export", str(target))
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [[0, 2, 1], [1, 1, -1], [2, 0, 1]]
    exported = json.loads(target.read_text())
    assert exported == {
        "n": 3,
        "k": 1,
        "index_order": "colex",
        "entries": [[0, 2, 1], [1, 1, -1], [2, 0, 1]],
    }
    _check_golden("duality_wedge_export.json", target.read_text())


def test_duality_wedge_export_to_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing" / "m.json"
    code, out, err = _run(capsys, "duality", "wedge", "3", "1", "--export", str(target))
    assert code == 2 and out == ""
    assert "cannot write export file" in err and not target.exists()


def test_duality_sym(capsys):
    code, out, _ = _run(capsys, "duality", "sym", "2", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagonal"] == ["1", "2", "1"]
    assert payload["full_rank"] is True
    _check_golden("duality_sym_2_2.json", out)


def _rendered(out: dict, fmt: str) -> str:
    """The bytes the CLI prints for ``out`` in ``fmt``, rendered with ``json`` and ``csv``."""
    cells = [(key, v if isinstance(v, str) else json.dumps(v, separators=(",", ":"))) for key, v in out.items()]
    if fmt == "json":
        return json.dumps(out, separators=(",", ":")) + "\n"
    if fmt == "markdown":
        return "".join(f"| {key} | {value} |\n" for key, value in [("key", "value"), ("---", "---"), *cells])
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([("key", "value"), *cells])
    return buffer.getvalue()


def _wedge_payload(n: int, k: int) -> dict:
    """The wedge result from colex subsets, complements and shuffle signs."""
    cols = {t: j for j, t in enumerate(subsets_colex(n, n - k))}
    entries = [
        [i, cols[tuple(x for x in range(1, n + 1) if x not in s)], (-1) ** (sum(s) - k * (k + 1) // 2)]
        for i, s in enumerate(subsets_colex(n, k))
    ]
    size = len(entries)
    # The permutation i -> size-1-i has C(size, 2) inversions.
    determinant = (-1) ** math.comb(size, 2) * math.prod(sign for _, _, sign in entries)
    return {
        "n": n,
        "k": k,
        "size": str(size),
        "index_order": "colex",
        "determinant": str(determinant),
        "entries": entries,
    }


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
@pytest.mark.parametrize("n", range(15))
def test_duality_wedge_bytes_in_every_format(capsys, tmp_path, fmt, n):
    """Every byte of each wedge with n <= 14, with and without ``--export``, up to C(14,7) = 3432 entries."""
    target = str(tmp_path / "m.json")
    for k in range(n + 1):
        payload = _wedge_payload(n, k)
        for export in ([], ["--export", target]):
            code, out, err = _run(capsys, "--format", fmt, "duality", "wedge", str(n), str(k), *export)
            expected = {**payload, **dict(zip(["exported"], export[1:]))}
            expected["formula"] = "wedge_complement_pairing"
            assert (code, err) == (0, "")
            assert out == _rendered(expected, fmt)
        exported = {key: payload[key] for key in ("n", "k", "index_order", "entries")}
        assert Path(target).read_text() == _rendered(exported, "json")


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
def test_duality_sym_bytes_in_every_format(capsys, fmt):
    """Every byte of ``duality sym 3 40``: C(42,2) = 861 monomials, descending lex, with n!/alpha!."""
    monomials = sorted(((a, b, 40 - a - b) for a in range(41) for b in range(41 - a)), reverse=True)
    diagonal = [
        str(math.factorial(40) // math.prod(math.factorial(e) for e in alpha)) for alpha in monomials
    ]
    expected = {
        "w_dim": 3,
        "n": 40,
        "size": "861",
        "monomials": [list(alpha) for alpha in monomials],
        "diagonal": diagonal,
        "full_rank": True,
        "formula": "symmetric_power_pairing",
    }
    code, out, err = _run(capsys, "--format", fmt, "duality", "sym", "3", "40")
    assert (code, err) == (0, "")
    assert out == _rendered(expected, fmt)


def test_duality_theta_vanishes(capsys, tmp_path):
    config = {
        "model": [[0, 0], [1, 0], [0, 1]],
        "Z": [[0, 0]],
        "W": [["1", "1"], ["2", "2"]],
    }
    points = tmp_path / "points.json"
    points.write_text(json.dumps(config))
    code, out, _ = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 0
    payload = json.loads(out)
    assert payload["vanishes"] is True
    assert payload["determinant"] == "0"
    assert payload["pairing"] == "0"
    _check_golden("duality_theta_vanishes_true.json", out)

    config["W"] = [["1", "0"], ["0", "1/2"]]
    points.write_text(json.dumps(config))
    code, out, _ = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 0
    payload = json.loads(out)
    assert payload["vanishes"] is False
    assert payload["determinant"] == payload["pairing"] == "1/2"
    _check_golden("duality_theta_vanishes_false.json", out)


def test_duality_theta_vanishes_bad_points(capsys, tmp_path):
    points = tmp_path / "points.json"
    config = {"model": [[0, 0], [1, 0], [0, 1]], "Z": [["1/0", 1]], "W": [[1, 2], [3, 4]]}
    points.write_text(json.dumps(config))
    code, out, err = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 2 and out == ""
    assert "zero denominator" in err and "Traceback" not in err
    # coincident points (also written differently) and a size mismatch are domain errors
    config["Z"] = [["1", "2"]]
    config["W"] = [["2/2", 2], [3, 4]]
    points.write_text(json.dumps(config))
    code, _, err = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 2 and "coincident" in err
    config["W"] = [[3, 4]]
    points.write_text(json.dumps(config))
    code, _, err = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 2 and "model size" in err


@pytest.mark.parametrize(
    "coordinate", ["1e10000000", "1E5", "0.5", "1.", " 1", "+1", "1/-2", 1.5, True, None, [1]]
)
def test_duality_theta_vanishes_rejects_coordinate_notation(capsys, tmp_path, coordinate):
    points = tmp_path / "points.json"
    config = {"model": [[0, 0], [1, 0], [0, 1]], "Z": [[coordinate, 1]], "W": [[1, 2], [3, 4]]}
    points.write_text(json.dumps(config))
    code, out, err = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 2 and out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", [[1.5, 0], [True, 0], ["1", 0], [None, 0], [0], [0, 0, 0], 1])
def test_duality_theta_vanishes_rejects_model_exponents(capsys, tmp_path, entry):
    points = tmp_path / "points.json"
    config = {"model": [entry, [0, 0]], "Z": [[1, 1]], "W": [[2, 3]]}
    points.write_text(json.dumps(config))
    code, out, err = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 2 and out == ""
    assert "integer exponents" in err and "Traceback" not in err


def test_duality_theta_vanishes_laurent_model(capsys, tmp_path):
    points = tmp_path / "points.json"
    config = {"model": [[0, 0], [-1, 0], [0, 1]], "Z": [["1/2", 1]], "W": [[1, 2], [3, -4]]}
    points.write_text(json.dumps(config))
    code, out, _ = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 0
    assert json.loads(out)["determinant"] == json.loads(out)["pairing"] != "0"
    # x^-1 has a pole at x = 0
    config["W"] = [[0, 2], [3, -4]]
    points.write_text(json.dumps(config))
    code, out, err = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 2 and out == ""
    assert "pole" in err and "Traceback" not in err


def test_duality_theta_vanishes_unbalanced(capsys, tmp_path):
    # C(20,1) = 20 is within the budget, and so is the work for W (19 rows)
    n = 20
    model = [[i, d - i] for d in range(6) for i in range(d, -1, -1)][:n]
    xs = [f"{i - n // 2}/2" for i in (7, 2, 15, 11, 0, 19, 4, 13, 9, 17, 1, 6, 14, 3, 18, 10, 5, 12, 16, 8)]
    ys = [f"{j - n // 2}/3" for j in range(n)]
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"model": model, "Z": [[xs[0], ys[0]]], "W": list(map(list, zip(xs[1:], ys[1:])))}))
    code, out, _ = _run(capsys, "duality", "theta-vanishes", "--points", str(points))
    assert code == 0
    result = json.loads(out)
    assert result["vanishes"] is False
    assert result["determinant"] == result["pairing"] != "0"


def test_duality_term_budget_refusals(capsys, tmp_path):
    code, out, err = _run(capsys, "--term-budget", "19", "duality", "wedge", "6", "3")
    assert code == 3 and out == ""
    assert "term budget exceeded: C(6,3) = 20 > 19" in err
    code, _, _ = _run(capsys, "--term-budget", "20", "duality", "wedge", "6", "3")
    assert code == 0
    code, out, err = _run(capsys, "duality", "sym", "6", "30")
    assert code == 3 and out == ""
    assert "term budget exceeded: C(35,30) = 324632 > 200000" in err
    code, _, err = _run(capsys, "--term-budget", "5", "duality", "sym", "2", "5")
    assert code == 3 and "C(6,5) = 6 > 5" in err
    # Under the budget as monomials, over it as exponents: w_dim of them per monomial.
    code, out, err = _run(capsys, "duality", "sym", "1500", "1")
    assert (code, out, err) == (3, "", "error: term budget exceeded: 1500 x C(1500,1) = 2250000 > 200000\n")
    code, out, _ = _run(capsys, "--term-budget", "2250000", "duality", "sym", "1500", "1")
    assert code == 0 and json.loads(out)["size"] == "1500"
    points = tmp_path / "points.json"
    points.write_text(
        json.dumps({"model": [[0, 0], [1, 0], [0, 1], [1, 1]], "Z": [[0, 0], [1, 2]], "W": [[3, 1], [2, 5]]})
    )
    code, out, err = _run(capsys, "--term-budget", "5", "duality", "theta-vanishes", "--points", str(points))
    assert code == 3 and out == ""
    assert "term budget exceeded: C(4,2) = 6 > 5" in err
    # out-of-range sizes are domain errors, not refusals, whatever the budget
    code, _, _ = _run(capsys, "--term-budget", "5", "duality", "wedge", "3", "-1")
    assert code == 2
    code, _, err = _run(capsys, "--term-budget", "-1", "duality", "wedge", "3", "4")
    assert code == 2 and "need 0 <= k <= n" in err
    code, _, _ = _run(capsys, "--term-budget", "-1", "duality", "wedge", "3", "1")
    assert code == 3


def test_elliptic_normalize(capsys):
    code, out, _ = _run(capsys, "elliptic", "normalize", "2", "3", "-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["twists"] == "0" and payload["a"] == "5"
    _check_golden("elliptic_normalize.json", out)


def test_elliptic_nu(capsys):
    code, out, _ = _run(capsys, "elliptic", "nu", "2", "3", "12", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == "-2" and payload["nu_strong"] is True
    _check_golden("elliptic_nu.json", out)


def test_elliptic_theta_class(capsys):
    code, out, _ = _run(capsys, "elliptic", "theta-class", "2", "3", "12", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["L"] == {"sigma": "5", "fiber": "10"}
    assert payload["chi_L"] == "27"
    _check_golden("elliptic_theta_class.json", out)


def test_elliptic_dims(capsys):
    code, out, _ = _run(capsys, "elliptic", "dims", "2", "3", "12", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_a"] == payload["dim_b"] == "17383860"
    assert payload["corollary_applies"] is True
    _check_golden("elliptic_dims.json", out)


def test_divisibility_error_exit_code(capsys):
    code, out, err = _run(capsys, "elliptic", "nu", "2", "2", "10", "10")
    assert code == 2
    assert out == ""
    assert "divisibility: 4 does not divide 18" in err


def test_domain_error_exit_code(capsys):
    code, _, err = _run(capsys, "verlinde", "0", "1", "2")
    assert code == 2 and "rank" in err
    code, _, err = _run(capsys, "elliptic", "dims", "2", "2", "5", "5")
    assert code == 2 and "nu too weak" in err


def test_mukai_chi_abelian_zero_dv(capsys):
    # dv(v) = 0, so the binomial C(dv+dw-2, dv-1) has lower index -1 and is 0
    code, out, err = _run(
        capsys,
        "--lattice", "abelian_pp",
        "mukai", "chi-abelian", "--v", "1:0:1", "--w", "1:3:1", "--variant", "s4",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == "0"


def test_not_integral_exit_code(capsys):
    code, _, err = _run(
        capsys,
        "--lattice", "abelian_pp",
        "mukai", "chi-abelian", "--v", "1:2:2", "--w", "1:3:7", "--variant", "s2",
    )
    assert code == 1
    assert "not integral" in err


def test_term_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("THETACALC_TERM_BUDGET", "5")
    code, _, err = _run(capsys, "verlinde", "3", "3", "2")
    assert code == 3
    assert "term budget exceeded: C(6,3) = 20 > 5" in err


@pytest.mark.parametrize(
    "error, code",
    [
        (ThetaCalcError("x"), 1),
        (ArithmeticBugError("x"), 1),
        (DomainError("x"), 2),
        (TermBudgetError(6, 3, 5), 3),
    ],
)
def test_each_error_family_exits_with_its_code(capsys, monkeypatch, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_resolve_settings", fail)
    assert _run(capsys, "verlinde", "3", "3", "2") == (code, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv", [("verlinde", "10000", "10000", "2"), ("duality", "wedge", "20000", "10000")]
)
def test_term_budget_refusal_of_over_long_count(capsys, argv):
    # C(20000, 10000) has 6,019 digits, more than Python's default int-to-str limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = _run(capsys, *argv)
    assert code == 3 and out == ""
    prefix, _, rest = err.partition("C(20000,10000) = ")
    count, _, suffix = rest.partition(" > ")
    assert prefix == "error: term budget exceeded: " and suffix == "200000\n"
    assert len(count) == 6019 and count.startswith("224560266274634554155")
    assert int(count[-9:]) == math.comb(20000, 10000) % 10**9
    if limit:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv, count",
    [
        (("verlinde", "3000000", "3000000", "2"), "C(6000000,3000000)"),
        (("duality", "sym", "2000000", "2000000"), "C(3999999,2000000)"),
    ],
)
def test_term_budget_refusal_of_a_huge_count_is_quick(capsys, argv, count):
    # C(6000000, 3000000) has about 1.8 million digits: neither computed nor printed
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (3, "", f"error: term budget exceeded: {count} > 200000\n")


def test_term_budget_count_is_printed_up_to_10000_digits():
    # C(10^9999, 1) has 10,000 digits and C(10^10000, 10^10000 - 1) 10,001,
    # more than Python's default int-to-str limit for either
    n, text = 10**9999, "1" + "0" * 9999
    with pytest.raises(TermBudgetError) as info:
        check_budget(n, 1, 10)
    assert str(info.value) == f"term budget exceeded: C({text},1) = {text} > 10"
    n, text, less = 10**10000, "1" + "0" * 10000, "9" * 10000
    with pytest.raises(TermBudgetError) as info:
        check_budget(n, n - 1, 10)
    assert str(info.value) == f"term budget exceeded: C({text},{less}) > 10"
    for k in (0, 2):  # C(2, k) is 1 and 1 <= 1: only a budget below 1 refuses
        check_budget(2, k, 1)
        with pytest.raises(TermBudgetError, match=rf"C\(2,{k}\) = 1 > 0"):
            check_budget(2, k, 0)


def test_term_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("THETACALC_TERM_BUDGET", "5")
    code, out, _ = _run(capsys, "--term-budget", "100", "verlinde", "3", "3", "2")
    assert code == 0
    assert json.loads(out)["value"] == "166"


def test_unknown_subcommand_exits_64(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 64
    assert "usage:" in err
    code, _, err = _run(capsys, "duality", "wedge", "3")
    assert code == 64


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_config_file(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_format": "markdown", "term_budget": 5}))
    code, out, _ = _run(capsys, "--config", str(config), "verlinde", "2", "1", "2")
    assert code == 0
    assert out.startswith("| key | value |")
    assert "| value | 4 |" in out
    code, _, err = _run(capsys, "--config", str(config), "--format", "json", "verlinde", "3", "3", "2")
    assert code == 3  # term budget from the config file still applies


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"term_budget": "abc"}, ["duality", "wedge", "3", "1"]),
        ({"term_budget": True}, ["verlinde", "2", "1", "2"]),
        ({"term_budget": 1.5}, ["verlinde", "2", "1", "2"]),
        ({"precision": "x"}, ["verlinde", "2", "1", "2", "--float-oracle"]),
        ({"precision": False}, ["verlinde", "2", "1", "2", "--float-oracle"]),
        ({"output_format": 3}, ["verlinde", "2", "1", "2"]),
        ({"lattice_preset": ["k3_elliptic"]}, ["mukai", "fm", "--v", "1:0,0:1"]),
        ([1, 2], ["verlinde", "2", "1", "2"]),
        ({"lattice_presets": {"x": 5}}, ["verlinde", "2", "1", "2"]),
        ({"lattice_presets": [1]}, ["verlinde", "2", "1", "2"]),
        (
            {"lattice_presets": {"x": [[1.5]]}},
            ["--lattice", "x", "mukai", "pair", "--v=1:1:0", "--w=1:1:0"],
        ),
        ({"lattice_presets": {"x": [[True]]}}, ["verlinde", "2", "1", "2"]),
        ({"lattice_presets": {"x": [1]}}, ["verlinde", "2", "1", "2"]),
        ({"lattice_presets": {"x": [["1"]]}}, ["verlinde", "2", "1", "2"]),
        ({"lattice_presets": {"x": []}}, ["verlinde", "2", "1", "2"]),
        ({"lattice_presets": {"x": [[1, 0], [0]]}}, ["verlinde", "2", "1", "2"]),
    ],
)
def test_config_value_types(capsys, tmp_path, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = _run(capsys, "--config", str(path), *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_json_integer_beyond_conversion_limit(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"term_budget": ' + "1" * 5000 + "}")
    code, _, err = _run(capsys, "--config", str(path), "verlinde", "2", "1", "2")
    assert code == 2 and "cannot read config file" in err
    path.write_text('{"model": [[0, 0]], "Z": [], "W": [[' + "1" * 5000 + ", 1]]}")
    code, _, err = _run(capsys, "duality", "theta-vanishes", "--points", str(path))
    assert code == 2 and "cannot read points file" in err


def test_config_lattice_presets(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "lattice_preset": "abelian_product",
                "lattice_presets": {"abelian_product": [[0, 1], [1, 0]]},
            }
        )
    )
    code, out, _ = _run(
        capsys, "--config", str(config), "mukai", "pair", "--v", "1:1,0:0", "--w", "0:0,1:2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["preset"] == "abelian_product"
    assert payload["pairing"] == "-1"  # c1(v).c1(w) - v0*w4 = 1 - 2


K3_PAIR = ("mukai", "pair", "--v=1:1,0:0", "--w=0:0,1:2")
AB_PAIR = ("mukai", "pair", "--v=1:1:0", "--w=1:2:4")
ORACLE = ("verlinde", "2", "1", "2", "--float-oracle")
FLOOR = "error: float oracle precision must be >= 15 digits\n"


@pytest.mark.parametrize(
    "config, env, argv, code, expected",
    [
        # a flag wins over the config file
        ({"lattice_preset": "abelian_pp"}, None, ("--lattice", "k3_elliptic", *K3_PAIR), 0, '"preset":"k3_elliptic"'),
        ({"precision": 10}, None, ("--precision", "20", *ORACLE), 0, '"float_value":"4.0"'),
        ({"output_format": "xml"}, None, ("--format", "json", "verlinde", "2", "1", "2"), 0, '"value":"4"'),
        # the environment wins over the config file, the flag over both
        ({"term_budget": 5}, "100", ("verlinde", "3", "3", "2"), 0, '"value":"166"'),
        ({"term_budget": 100}, "5", ("verlinde", "3", "3", "2"), 3, "C(6,3) = 20 > 5"),
        ({"term_budget": 5}, "5", ("--term-budget", "100", "verlinde", "3", "3", "2"), 0, '"value":"166"'),
        # an empty --lattice is absent; a zero --term-budget or --precision is used
        (None, None, ("--lattice", "", *K3_PAIR), 0, '"preset":"k3_elliptic"'),
        ({"lattice_preset": "abelian_pp"}, None, ("--lattice", "", *AB_PAIR), 0, '"preset":"abelian_pp"'),
        (None, None, ("--term-budget", "0", "verlinde", "2", "1", "2"), 3, "C(3,1) = 3 > 0"),
        ({"precision": 30}, None, ("--precision", "0", *ORACLE), 2, FLOOR),
        # a bad environment value is refused even when the flag is given
        (None, "x", ("--term-budget", "100", "verlinde", "2", "1", "2"), 2,
         "error: THETACALC_TERM_BUDGET must be an integer, got 'x'\n"),
        # config type errors in key order, then lattice_presets, then the
        # environment, then the output format
        ({"term_budget": "abc"}, "x", ("verlinde", "2", "1", "2"), 2,
         "error: config value 'term_budget' must be of type int, got 'abc'\n"),
        ({"precision": True, "output_format": 3}, None, ("verlinde", "2", "1", "2"), 2,
         "error: config value 'output_format' must be of type str, got 3\n"),
        ({"precision": "x", "lattice_preset": 1}, None, ("verlinde", "2", "1", "2"), 2,
         "error: config value 'lattice_preset' must be of type str, got 1\n"),
        ({"precision": "x", "lattice_presets": [1]}, None, ("verlinde", "2", "1", "2"), 2,
         "error: config value 'precision' must be of type int, got 'x'\n"),
        ({"output_format": "xml"}, "x", ("verlinde", "2", "1", "2"), 2,
         "error: THETACALC_TERM_BUDGET must be an integer, got 'x'\n"),
        ({"output_format": "xml"}, None, ("verlinde", "2", "1", "2"), 2,
         "error: unknown output format 'xml'\n"),
    ],
)
def test_settings_precedence(capsys, monkeypatch, tmp_path, config, env, argv, code, expected):
    if env is None:
        monkeypatch.delenv("THETACALC_TERM_BUDGET", raising=False)
    else:
        monkeypatch.setenv("THETACALC_TERM_BUDGET", env)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ("--config", str(path), *argv)
    got_code, out, err = _run(capsys, *argv)
    assert got_code == code
    if code:
        assert out == "" and (err == expected if expected.startswith("error: ") else expected in err)
    else:
        assert expected in out and err == ""


def test_csv_format(capsys):
    code, out, _ = _run(capsys, "--format", "csv", "verlinde", "2", "1", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "value,4" in lines


# Strings of any code points, lone surrogates included, and of ASCII alone.
_chars = st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr))
_strings = st.one_of(st.text(_chars, max_size=8), st.text(st.characters(max_codepoint=0x7F)))
_json_values = st.recursive(
    st.one_of(st.booleans(), st.integers(), _strings),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_strings, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(database=None, deadline=None)
@given(_json_values)
@example(["plain ASCII", 'a "quote"', "back\\slash", "tab\t", "del\x7f", "\x00", ""])
@example({"\u00e9": "\U0001d542", "\ud800": ("lone", "\udfff")})
def test_json_text_equals_compact_json_dumps(value):
    assert _json_text(value) == json.dumps(value, separators=(",", ":"))


def test_write_puts_block_text_in_place_and_json_text_refuses_other_types():
    entries = _Blocks(2, "[%d,%d,%d]", (0, 1, -1, 1, 0, 1).__iter__)
    buffer = io.StringIO()
    _write({"entries": entries, "name": "\u00e9"}, "json", buffer)
    assert buffer.getvalue() == '{"entries":[[0,1,-1],[1,0,1]],"name":"\\u00e9"}\n'
    for value in (1.5, None, b"ab", {1, 2}, {"x": 0.5}, [range(2)], entries, [entries]):
        with pytest.raises(TypeError):
            _json_text(value)


@pytest.mark.parametrize("block", [1, 2, 3, 512])
def test_blocks_of_every_length_in_every_format(monkeypatch, block):
    """Lists of 0-7 items, cut into blocks of 1, 2, 3 and 512: empty, exact multiples and a
    remainder; in csv a one-item list with and without a "," or a '"', which csv quotes."""
    monkeypatch.setattr(cli, "_BLOCK", block)
    for size in range(8):
        pairs = [value for i in range(size) for value in (i, -i)]
        words = [str(10**i) for i in range(size)]
        out = {
            "size": size,
            "pairs": _Blocks(size, "[%d,%d]", pairs.__iter__),
            "words": _Blocks(size, '"%s"', words.__iter__),
            "singles": _Blocks(size, "[%d]", range(size).__iter__),
        }
        expected = {
            "size": size,
            "pairs": [[i, -i] for i in range(size)],
            "words": words,
            "singles": [[i] for i in range(size)],
        }
        for fmt in FORMATS:
            buffer = io.StringIO()
            _write(out, fmt, buffer)
            assert buffer.getvalue() == _rendered(expected, fmt)


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "thetacalc.cli", "verlinde", "2", "1", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["value"] == "4"


def test_vector_spec_errors(capsys):
    code, _, err = _run(capsys, "mukai", "pair", "--v", "1:2", "--w", "1:0,0:0")
    assert code == 2 and "vector spec" in err
    code, _, err = _run(capsys, "mukai", "pair", "--v", "1:x,0:0", "--w", "1:0,0:0")
    assert code == 2 and "non-integer" in err
    code, _, err = _run(capsys, "mukai", "pair", "--v", "1:1:0", "--w", "1:0,0:0")
    assert code == 2  # coordinate count does not match the lattice rank
