"""The lazy package namespace and the modules each CLI query imports."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import thetacalc

# Every name the package exports, by the module that defines it.
EXPORTED = {
    "cyclotomic": (
        "CycloElement cyclotomic_polynomial to_rational two_sin"
    ),
    "elliptic_k3": (
        "DualityDims NormalizedVector NuResult ThetaClass "
        "chi_of_vector chi_pair compute_nu normalize_vector "
        "normalized_vector ns_class strange_duality_dims theta_bundle_class"
    ),
    "errors": (
        "ArithmeticBugError DegenerateConfigError DivisibilityError DomainError "
        "LatticeMismatchError NotIntegralError NotRationalError NuTooWeakError "
        "TermBudgetError ThetaCalcError"
    ),
    "mukai": (
        "ConjectureVerdict MukaiVector NSClass NSLattice c1_proportional c1_tensor "
        "check_conjecture chi_abelian chi_k3 chi_tensor dv fm_transform "
        "lattice_preset mukai_pairing"
    ),
    "power_duality": (
        "SymDualityMatrix WedgeMatrix sym_duality_matrix "
        "theta_vanishes wedge_duality_matrix"
    ),
    "verlinde": (
        "DEFAULT_TERM_BUDGET VerlindeQuery VerlindeReport check_rank_level_symmetry "
        "float_oracle modified_verlinde verlinde_number"
    ),
}

SRC = str(Path(thetacalc.__file__).resolve().parent.parent)
TRACED_CLI = Path(__file__).resolve().parent.parent / "bench" / "traced_cli.py"


def _fresh(script: str) -> str:
    """Stdout of a script run in a fresh interpreter that imports this thetacalc."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout


def _loaded_after(argv: list[str]) -> set[str]:
    """Modules in sys.modules after one CLI query in a fresh interpreter.

    The script imports json for its own output only after it has listed them.
    """
    script = (
        "import contextlib, io, sys\n"
        "from thetacalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "assert code == 0, code\n"
        "loaded = sorted(sys.modules)\n"
        "import json\n"
        "sys.stdout.write(json.dumps(loaded))\n"
    )
    return set(json.loads(_fresh(script)))


def test_verlinde_query_imports_only_its_modules():
    loaded = _loaded_after(["verlinde", "2", "1", "2"])
    assert {"thetacalc.cli", "thetacalc.verlinde", "thetacalc.cyclotomic"} <= loaded
    unwanted = {
        "thetacalc.mukai",
        "thetacalc.power_duality",
        "thetacalc.elliptic_k3",
        "dataclasses",
        "mpmath",
        "argparse",
        "gettext",
        "locale",
        "fractions",
        "decimal",
        "numbers",
    }
    assert not unwanted & loaded


def test_float_oracle_query_loads_no_float_modules():
    """The float oracle computes in ints: no mpmath, and none of fractions, decimal or numbers."""
    loaded = _loaded_after(["verlinde", "3", "4", "2", "--float-oracle"])
    assert not {"mpmath", "fractions", "decimal", "numbers"} & loaded


def test_float_oracle_runs_without_mpmath():
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from thetacalc.cli import main\n"
        "assert main(['verlinde', '3', '4', '2', '--float-oracle']) == 0\n"
    )
    assert '"float_value":"504.0"' in _fresh(script)


def test_mukai_query_imports_only_its_modules():
    loaded = _loaded_after(["mukai", "pair", "--v=1:1,0:0", "--w=0:0,1:2"])
    assert "thetacalc.mukai" in loaded
    assert not {"thetacalc.power_duality", "thetacalc.elliptic_k3"} & loaded


def test_config_file_loads_mukai_only_for_lattice_presets(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"output_format": "csv", "lattice_preset": "abelian_pp", "precision": 20}')
    argv = ["--config", str(config), "verlinde", "2", "1", "2", "--float-oracle"]
    assert "thetacalc.mukai" not in _loaded_after(argv)
    config.write_text('{"lattice_presets": {"x": [[2]]}}')
    assert "thetacalc.mukai" in _loaded_after(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["mukai", "pair", "--v=1:1,0:0", "--w=0:0,1:2"],
        ["duality", "wedge", "3", "1"],
        ["elliptic", "nu", "2", "3", "12", "15"],
    ],
)
def test_other_queries_load_no_verlinde_modules(argv):
    assert not {"thetacalc.verlinde", "thetacalc.cyclotomic"} & _loaded_after(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["duality", "wedge", "3", "1"],
        ["duality", "theta-vanishes", "--points", "POINTS"],
        ["mukai", "pair", "--v=1:1,0:0", "--w=0:0,1:2"],
        ["elliptic", "dims", "2", "2", "8", "10"],
    ],
)
def test_record_queries_load_neither_dataclasses_nor_inspect(argv, tmp_path):
    points = tmp_path / "points.json"
    config = {"model": [[0, 0], [1, 0], [0, 1]], "Z": [[1, 2]], "W": [[3, 5], [4, 7]]}
    points.write_text(json.dumps(config))
    loaded = _loaded_after([str(points) if arg == "POINTS" else arg for arg in argv])
    assert not {"dataclasses", "inspect"} & loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["mukai", "pair", "--v=1:1,0:0", "--w=0:0,1:2"],
        ["duality", "wedge", "3", "1"],
        ["elliptic", "dims", "2", "2", "8", "10"],
    ],
)
def test_well_formed_queries_do_not_load_argparse(argv):
    assert "argparse" not in _loaded_after(argv)


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verlinde", "2", "1", "2"],
        ["mukai", "pair", "--v=1:1,0:0", "--w=0:0,1:2"],
        ["elliptic", "dims", "2", "2", "8", "10"],
        ["duality", "wedge", "4", "2"],
        ["duality", "sym", "2", "3"],
    ],
)
def test_queries_do_not_load_json(argv, fmt):
    """Output is rendered without json; only input files and escaped strings load it."""
    assert "json" not in _loaded_after(["--format", fmt, *argv])


@pytest.mark.parametrize(
    "argv",
    [
        ["duality", "wedge", "4", "2"],
        ["duality", "sym", "2", "3"],
        ["mukai", "pair", "--v=1:0,1:-1", "--w=2:1,3:-1"],
        ["mukai", "chi-k3", "--v=1:0,1:-1", "--w=2:1,3:-1"],
        ["--lattice", "abelian_pp", "mukai", "chi-abelian", "--v=1:1:0", "--w=1:2:4"],
        ["elliptic", "dims", "2", "2", "8", "10"],
    ],
)
def test_wedge_and_sym_queries_do_not_load_fractions(argv):
    """Only the handlers that build rationals load fractions (and decimal and numbers)."""
    assert not {"fractions", "decimal", "numbers"} & _loaded_after(argv)


@pytest.mark.parametrize("name", ["true", "forms", "laurent", "z_empty", "rank_deficient"])
def test_theta_query_does_not_load_fractions(name):
    """theta-vanishes computes in integers; it loads json only to read its points file."""
    points = Path(__file__).resolve().parent / "golden" / f"corpus_points_{name}.json"
    loaded = _loaded_after(["duality", "theta-vanishes", "--points", str(points)])
    assert not {"fractions", "decimal", "numbers"} & loaded


USAGE = """\
usage: thetacalc [-h] [--format {json,markdown,csv}] [--config CONFIG]
                 [--term-budget TERM_BUDGET] [--lattice LATTICE]
                 [--precision PRECISION]
                 {verlinde,mukai,duality,elliptic} ...
"""
MUKAI_HELP = """\
usage: thetacalc mukai [-h] {pair,chi-k3,chi-abelian,fm,conjecture} ...

positional arguments:
  {pair,chi-k3,chi-abelian,fm,conjecture}

options:
  -h, --help            show this help message and exit
"""
FROBNICATE = USAGE + (
    "error: argument command: invalid choice: 'frobnicate' "
    "(choose from 'verlinde', 'mukai', 'duality', 'elliptic')\n"
)
VERLINDE_3_3 = """\
usage: thetacalc verlinde [-h] [--modified] [--check-symmetry]
                          [--float-oracle]
                          r k g
error: the following arguments are required: g
"""


def _console(*argv: str) -> subprocess.CompletedProcess:
    """The CLI as a script runs it: ``run()`` reads its arguments from sys.argv."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-m", "thetacalc.cli", *argv], capture_output=True, text=True, env=env
    )


def test_help_and_usage_errors_are_argparse_text():
    top = _console("--help")
    assert top.returncode == 0 and top.stderr == ""
    assert top.stdout.startswith(USAGE + "\nCommand-line frontend.")
    assert "    verlinde            rank-level theta section counts\n" in top.stdout
    assert "  --precision PRECISION\n" in top.stdout
    mukai = _console("mukai", "--help")
    assert (mukai.returncode, mukai.stdout, mukai.stderr) == (0, MUKAI_HELP, "")
    for argv, text in [(["frobnicate"], FROBNICATE), (["verlinde", "3", "3"], VERLINDE_3_3)]:
        result = _console(*argv)
        assert (result.returncode, result.stdout, result.stderr) == (64, "", text)


@pytest.mark.parametrize(
    "argv",
    [
        ["verlinde", "2", "1", "2"],
        ["mukai", "pair", "--v=1:1,0:0", "--w=0:0,1:2"],
        ["duality", "wedge", "4", "2"],
        ["elliptic", "dims", "2", "3", "12", "15"],
    ],
)
def test_bench_tracer_runs_each_subcommand(argv, tmp_path):
    """The bench tracer patches package names; a query under it prints what the CLI prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    traced = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(tmp_path / "t"), *argv],
        capture_output=True,
        env=env,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "thetacalc.cli", *argv], capture_output=True, env=env
    )
    assert traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == plain.stdout


def test_bench_tracer_sees_the_cyclotomic_work(tmp_path):
    """The tracer's per-layer counters of a Verlinde query are not all zero.

    It wraps ``CycloElement.__mul__`` and ``__pow__``; if the Verlinde path
    left that class, its multiply and power counts would read 0 while the
    output still matched.
    """
    spec = importlib.util.spec_from_file_location("spans", TRACED_CLI.parent / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    env = dict(os.environ, PYTHONPATH=SRC)
    prefix = str(tmp_path / "t")
    argv = [sys.executable, str(TRACED_CLI), prefix, "verlinde", "7", "7", "3"]
    subprocess.run(argv, capture_output=True, env=env, check=True)
    meta = json.loads(Path(prefix + ".json").read_text())
    name_ids = spans.read_spans(prefix + ".bin", meta["span_count"])[0]
    counts = {name: name_ids.count(i) for i, name in enumerate(meta["names"])}
    assert counts["cyclotomic.mul"] > 0 and counts["cyclotomic.pow"] > 0
    assert meta["groups_count"] > 0 and meta["coeff_bits_max"] > 0


def test_all_lists_every_exported_name():
    names = [name for group in EXPORTED.values() for name in group.split()]
    assert sorted(thetacalc.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_names_resolve_to_submodule_objects(module):
    submodule = importlib.import_module(f"thetacalc.{module}")
    for name in EXPORTED[module].split():
        assert getattr(thetacalc, name) is getattr(submodule, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        thetacalc.no_such_name  # noqa: B018
    assert not hasattr(thetacalc, "no_such_name")


def test_submodule_and_star_imports():
    script = (
        "import sys, thetacalc\n"
        "assert not [m for m in sys.modules if m.startswith('thetacalc.')]\n"
        "from thetacalc import cyclotomic\n"
        "assert cyclotomic is sys.modules['thetacalc.cyclotomic']\n"
        "from thetacalc import *\n"
        "assert two_sin is cyclotomic.two_sin\n"
        "assert DomainError is sys.modules['thetacalc.errors'].DomainError\n"
        "print([name for name in thetacalc.__all__ if name not in globals()])\n"
    )
    assert _fresh(script) == "[]\n"
    from thetacalc import power_duality

    assert power_duality is sys.modules["thetacalc.power_duality"]


def test_records_bind_fields_like_frozen_dataclasses():
    from thetacalc.elliptic_k3 import NuResult
    from thetacalc.errors import DomainError
    from thetacalc.mukai import NSClass, NSLattice

    lattice = NSLattice(((2,),))
    assert lattice == NSLattice(gram=((2,),), name="") and lattice.name == ""
    assert repr(NSLattice(((2,),), "a")) == "NSLattice(gram=((2,),), name='a')"
    nu = NuResult(-2, divisible=True, nu_strong=True)
    assert nu == NuResult(nu=-2, divisible=True, nu_strong=True) != NuResult(-3, True, True)
    assert hash(nu) == hash(NuResult(-2, True, True))
    assert pickle.loads(pickle.dumps(nu)) == nu
    # missing, surplus, unknown and repeated fields
    for args, kwargs in [
        ((-2, True), {}),
        ((-2, True, True, 1), {}),
        ((-2, True), {"strong": 1}),
        ((-2, True, True), {"nu": 1}),
    ]:
        with pytest.raises(TypeError):
            NuResult(*args, **kwargs)
    with pytest.raises(DomainError):
        NSClass(lattice, (1, 2))
    with pytest.raises(AttributeError):
        nu.nu = 3
    with pytest.raises(AttributeError):
        del nu.nu
