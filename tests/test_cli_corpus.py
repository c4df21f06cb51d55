"""Byte-for-byte CLI equivalence over a fixed corpus of invocations.

``golden/cli_corpus.jsonl`` holds one record per invocation: its argv, exit
code, stdout and stderr.  The corpus covers every subcommand and op in all
three formats, the domain (exit 2) and term-budget (exit 3) refusals, strings
that JSON escapes, a grid of Verlinde queries, and float-oracle values in fixed
and scientific notation.  Help and usage errors are left out; the package
tests pin their argparse text.  ``THETACALC_UPDATE_GOLDEN=1`` rewrites the
file from the current code.

Paths in the corpus are relative to the repository root, where the test runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from thetacalc.cli import ENV_TERM_BUDGET, main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"
POINTS_TRUE = "tests/golden/corpus_points_true.json"
POINTS_FALSE = "tests/golden/corpus_points_false.json"
# Points files of the theta path: non-reduced and zero-padded coordinates, a
# Laurent model, Z empty (k = 0) and W empty (k = n), a rank-deficient Z, and
# a coordinate of 4,300 digits, the most that Python reads as an int.
POINTS_ACCEPTED = tuple(
    f"tests/golden/corpus_points_{name}.json"
    for name in ("forms", "laurent", "z_empty", "w_empty", "rank_deficient", "long")
)
# "1" next to "1/1" (coincident), a pole of a Laurent monomial, a
# coordinate of 4,301 digits, a string and an object of two items as points,
# and an object as Z.
POINTS_REFUSED = tuple(
    f"tests/golden/corpus_points_{name}.json"
    for name in ("repeat", "pole", "too_long", "point_string", "point_object", "z_object")
)
POINTS_HUGE_EXPONENT = "tests/golden/corpus_points_huge_exponent.json"
# Points files that hold a JSON string, a number and a list instead of an
# object, one without W, and one whose model is a number.
POINTS_SHAPES = tuple(
    f"tests/golden/corpus_points_{name}.json"
    for name in ("file_string", "file_number", "file_list", "no_w", "model_number")
)
# A preset named with a quote, a backslash, a tab, a non-ASCII and a non-BMP character.
CONFIG_ESCAPE = "tests/golden/corpus_config_escape.json"
CONFIG_CONTROL = ("tests/golden/corpus_config_nul.json", "tests/golden/corpus_config_cr.json")
FORMATS = ((), ("--format", "markdown"), ("--format", "csv"))


def _verlinde_grid():
    for n in range(2, 15):
        for r in range(1, n):
            for g in (2, 3, 20):
                yield ["verlinde", str(r), str(n - r), str(g), "--modified", "--check-symmetry"]
    yield ["verlinde", "10", "10", "2"]
    yield ["verlinde", "7", "7", "80", "--modified"]
    yield ["verlinde", "2", "3", "20000"]
    yield ["--format", "csv", "verlinde", "6", "5", "4", "--check-symmetry"]
    yield ["verlinde", "3", "2", "4", "--float-oracle"]
    yield ["--precision", "40", "verlinde", "2", "2", "2", "--modified", "--float-oracle"]
    # v = 1 at 15 digits, and v = 5916727707553125 and 21880209314216250, each
    # a tie at the 16th digit: printed as v rounded half up.
    yield ["--precision", "15", "verlinde", "1", "2", "20", "--float-oracle"]
    yield ["verlinde", "2", "8", "10", "--float-oracle"]
    yield ["verlinde", "3", "7", "6", "--float-oracle"]


def _float_rendering():
    # The float value in fixed notation at 15 digits, in scientific notation
    # from 16 digits on, and at higher precisions.
    for g in ("24", "26", "40"):
        yield ["verlinde", "2", "2", g, "--float-oracle"]
    yield ["--precision", "20", "verlinde", "5", "5", "20", "--float-oracle"]
    yield ["--precision", "60", "verlinde", "4", "4", "10", "--float-oracle"]


def _each_op():
    k3 = ["--v=1:0,1:-1", "--w=2:1,3:-1"]
    ab = ["--lattice", "abelian_pp"]
    yield ["verlinde", "3", "4", "2", "--modified", "--check-symmetry", "--float-oracle"]
    yield ["mukai", "pair", *k3]
    yield ["mukai", "chi-k3", *k3]
    for variant in ("s2", "s3", "s4", "albanese_plus", "albanese_minus", "kummer"):
        yield [*ab, "mukai", "chi-abelian", "--v=1:1:0", "--w=1:2:4", "--variant", variant]
    yield [*ab, "mukai", "chi-abelian", "--v=1:0:1", "--w=1:3:1", "--variant", "s4"]
    yield [*ab, "mukai", "fm", "--v=3:2:1"]
    yield ["mukai", "conjecture", *k3, "--H=1,3"]
    yield ["mukai", "conjecture", *k3, "--H=2,5", "--v-effective", "--w-effective"]
    # full-width digits, which int() reads and the json echo escapes
    yield ["mukai", "pair", "--v=\uff11:1,0:0", "--w=0:0,1:2"]
    yield [*ab, "mukai", "fm", "--v=\uff13:\uff12:1"]
    yield ["--config", CONFIG_ESCAPE, "mukai", "pair", "--v=1:1:0", "--w=1:2:4"]
    yield ["--config", CONFIG_ESCAPE, "mukai", "fm", "--v=3:2:1"]
    for n, k in ((5, 2), (4, 0), (6, 0), (6, 6), (7, 5), (9, 4)):
        yield ["duality", "wedge", str(n), str(k)]
    yield ["duality", "sym", "2", "3"]
    yield ["duality", "theta-vanishes", "--points", POINTS_TRUE]
    yield ["duality", "theta-vanishes", "--points", POINTS_FALSE]
    for points in POINTS_ACCEPTED:
        yield ["duality", "theta-vanishes", "--points", points]
    yield ["elliptic", "normalize", "3", "7", "-1"]
    yield ["elliptic", "nu", "2", "3", "12", "15"]
    yield ["elliptic", "theta-class", "2", "3", "12", "15"]
    yield ["elliptic", "dims", "2", "3", "12", "15"]
    yield ["elliptic", "dims", "2", "3", "10002", "10000"]


def _refusals():
    # exit 2: bad input
    yield ["verlinde", "0", "1", "2"]
    yield ["verlinde", "2", "1", "1"]
    yield ["--precision", "10", "verlinde", "2", "1", "2", "--float-oracle"]
    yield ["--precision", "10001", "verlinde", "2", "1", "2", "--float-oracle"]
    yield ["--lattice", "no_such_lattice", "mukai", "fm", "--v=1:0,0:0"]
    yield ["mukai", "fm", "--v=2:1,0:-1"]
    yield ["mukai", "chi-k3", "--v=2:1,-1:1", "--w=1:0,1:-1"]
    yield ["mukai", "pair", "--v=1:1:0", "--w=1:0,0:0"]
    yield ["mukai", "pair", "--v=1:x,0:0", "--w=1:0,0:0"]
    yield ["duality", "theta-vanishes", "--points", "tests/golden/no_such_points.json"]
    for points in POINTS_REFUSED:
        yield ["duality", "theta-vanishes", "--points", points]
    yield ["--config", "tests/golden/no_such_config.json", "verlinde", "2", "1", "2"]
    yield ["elliptic", "nu", "2", "2", "10", "10"]
    yield ["elliptic", "nu", "1", "2", "1", "5"]
    yield ["elliptic", "dims", "2", "2", "5", "5"]
    # exit 3: over the term budget
    yield ["--term-budget", "200", "verlinde", "5", "5", "2"]
    yield ["verlinde", "12", "12", "2"]
    yield ["--term-budget", "10", "duality", "wedge", "6", "3"]
    yield ["--term-budget", "5", "duality", "sym", "3", "3"]
    yield ["--term-budget", "2", "duality", "theta-vanishes", "--points", POINTS_TRUE]


def _appended():
    # Records added after the corpus was written go at its end, each in the
    # three formats in turn, so that the earlier records keep their lines.
    # 1,500 monomials of 1,500 exponents each: over the budget as exponents,
    # under it as monomials.
    yield ["duality", "sym", "1500", "1"]
    # Over a budget of 1 with rows of 2^(10^7) and 3^(10^7): refused before
    # the rows are built.
    yield ["--term-budget", "1", "duality", "theta-vanishes", "--points", POINTS_HUGE_EXPONENT]
    # Presets named with NUL and with CR, which csv.writer refuses or quotes
    # differently across Python versions.
    for config in CONFIG_CONTROL:
        yield ["--config", config, "mukai", "pair", "--v=1:1:0", "--w=1:2:4"]
    # A JSON integer of 5,000 digits as a term budget and as a coordinate.
    yield ["--config", "tests/golden/corpus_config_long_budget.json", "verlinde", "2", "1", "2"]
    yield ["duality", "theta-vanishes", "--points", "tests/golden/corpus_points_json_long.json"]
    for points in POINTS_SHAPES:
        yield ["duality", "theta-vanishes", "--points", points]
    yield ["duality", "theta-vanishes", "--points", ""]
    # An integer of 5,000 digits in a vector spec and in a class spec: refused
    # over the digit limit without echoing it.
    yield ["--lattice", "abelian_pp", "mukai", "pair", f"--v={'1' * 5000}:1:0", "--w=1:2:4"]
    yield ["mukai", "conjecture", "--v=1:0,1:-1", "--w=2:1,3:-1", f"--H=1,{'1' * 5000}"]


def corpus_argvs() -> list[list[str]]:
    argvs = list(_verlinde_grid())
    for fmt in FORMATS:
        argvs += [[*fmt, *argv] for argv in _each_op()]
        argvs += [[*fmt, *argv] for argv in _float_rendering()]
        argvs += [[*fmt, *argv] for argv in _refusals()]
    for argv in _appended():
        argvs += [[*fmt, *argv] for fmt in FORMATS]
    return argvs


def _invoke(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded():
    """The records of the corpus file by argv; rewritten first under the update switch."""
    if os.environ.get("THETACALC_UPDATE_GOLDEN"):
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(ROOT)
            mp.delenv(ENV_TERM_BUDGET, raising=False)
            CORPUS.write_text("".join(json.dumps(_invoke(argv)) + "\n" for argv in corpus_argvs()))
    records = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert [r["argv"] for r in records] == corpus_argvs()
    return {tuple(r["argv"]): r for r in records}


@pytest.mark.parametrize("argv", corpus_argvs(), ids=" ".join)
def test_cli_corpus(argv, recorded, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv(ENV_TERM_BUDGET, raising=False)
    assert _invoke(argv) == recorded[tuple(argv)]
