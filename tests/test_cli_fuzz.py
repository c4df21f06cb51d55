"""Random command lines and input files end in an exit code, never a traceback.

Each example draws an argv from the grammar of every subcommand and flag,
with integers of absolute value at most 60 and a term budget of at most
5000 so that every query is quick, plus config and points files that are
well formed or malformed.  ``main`` runs in process and must return a
documented exit code; only ``--help`` may end it with ``SystemExit(0)``.

The same grammar, with mutations, checks that the fast parser reads every
command line it accepts exactly as argparse does.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from thetacalc.cli import COMMANDS, GLOBAL_OPTIONS, _build_parser, _dest, _fast_parse, main

EXIT_CODES = {0, 2, 3, 64}

ints = st.integers(-60, 60)
num = ints.map(str)
# A JSON value of any type, for the fields of the input files.
json_scalars = st.one_of(st.none(), st.booleans(), ints, st.floats(-2, 2), st.text("0123456789/-x ", max_size=6))
json_values = st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


def _vector_spec():
    well_formed = st.builds(
        lambda rank, coords, point: f"{rank}:{','.join(map(str, coords))}:{point}",
        ints,
        st.lists(ints, min_size=1, max_size=3),
        ints,
    )
    return st.one_of(well_formed, st.text("0123456789:,-x", max_size=10))


@st.composite
def _command(draw, tmp: Path) -> list[str]:
    kind = draw(st.sampled_from(["verlinde", "mukai", "wedge", "sym", "theta", "elliptic", "junk"]))
    if kind == "verlinde":
        argv = ["verlinde", draw(num), draw(num), draw(num)]
        for flag in ("--modified", "--check-symmetry", "--float-oracle"):
            if draw(st.booleans()):
                argv.append(flag)
        return argv
    if kind == "mukai":
        op = draw(st.sampled_from(["pair", "chi-k3", "chi-abelian", "fm", "conjecture"]))
        argv = ["mukai", op, "--v", draw(_vector_spec())]
        if op != "fm":
            argv += ["--w", draw(_vector_spec())]
        if op == "chi-abelian" and draw(st.booleans()):
            variants = ["s2", "s3", "s4", "albanese_plus", "albanese_minus", "kummer", "s5"]
            argv += ["--variant", draw(st.sampled_from(variants))]
        if op == "conjecture":
            coords = draw(st.lists(ints, min_size=1, max_size=3))
            argv += ["--H", ",".join(map(str, coords))]
            argv += draw(st.sampled_from([[], ["--v-effective"], ["--w-effective"]]))
        return argv
    if kind == "wedge":
        argv = ["duality", "wedge", draw(num), draw(num)]
        if draw(st.booleans()):
            target = draw(st.sampled_from(["m.json", "missing/m.json", "."]))
            argv += ["--export", str(tmp / target)]
        return argv
    if kind == "sym":
        return ["duality", "sym", draw(num), draw(num)]
    if kind == "theta":
        return ["duality", "theta-vanishes", "--points", str(tmp / draw(st.sampled_from(["points.json", "none.json", "."])))]
    if kind == "elliptic":
        op = draw(st.sampled_from(["normalize", "nu", "theta-class", "dims"]))
        count = 3 if op == "normalize" else 4
        return ["elliptic", op, *(draw(num) for _ in range(count))]
    return draw(st.lists(st.sampled_from(["verlinde", "duality", "wedge", "mukai", "pair", "-1", "3", "--v"]), max_size=4))


@st.composite
def _global_options(draw, tmp: Path) -> list[str]:
    argv = ["--term-budget", str(draw(st.integers(-5, 5000)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "markdown", "csv", "xml"]))]
    if draw(st.booleans()):
        argv += ["--lattice", draw(st.sampled_from(["k3_elliptic", "abelian_pp", "custom", "bogus"]))]
    if draw(st.booleans()):
        argv += ["--precision", draw(num)]
    if draw(st.booleans()):
        argv += ["--config", str(tmp / draw(st.sampled_from(["config.json", "none.json"])))]
    if draw(st.integers(0, 30)) == 0:
        argv.append("--help")
    return argv


def _point():
    coordinate = st.one_of(ints, st.builds(lambda p, q: f"{p}/{q}", ints, st.integers(0, 60)), json_scalars)
    return st.one_of(st.lists(coordinate, min_size=2, max_size=2), json_values)


points_files = st.one_of(
    st.fixed_dictionaries(
        {
            "model": st.lists(st.one_of(st.lists(ints, min_size=2, max_size=2), json_values), max_size=6),
            "Z": st.lists(_point(), max_size=4),
            "W": st.lists(_point(), max_size=4),
        }
    ).map(json.dumps),
    json_values.map(json.dumps),
    st.text("{}[]\":,0123456789ZWmodel ", max_size=30),
)

config_files = st.one_of(
    st.dictionaries(
        st.sampled_from(["output_format", "term_budget", "lattice_preset", "precision", "lattice_presets"]),
        st.one_of(
            json_values,
            st.sampled_from(["json", "csv", "abelian_pp", "custom"]),
            st.dictionaries(
                st.sampled_from(["custom", "abelian_pp"]),
                st.one_of(st.lists(st.lists(ints, max_size=3), max_size=3), json_values),
                max_size=2,
            ),
        ),
        max_size=5,
    ).map(json.dumps),
    json_values.map(json.dumps),
    st.text("{}[]\":,0123456789abc ", max_size=30),
)


@settings(database=None, deadline=None, max_examples=250)
@given(data=st.data(), points=points_files, config=config_files)
def test_cli_fuzz_exits_with_a_documented_code(data, points, config):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "points.json").write_text(points)
        (tmp / "config.json").write_text(config)
        argv = data.draw(_global_options(tmp)) + data.draw(_command(tmp))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            assert exc.code == 0 and "--help" in argv
            return
    if code == 1:
        # Exit 1 is an exactness failure.  chi-abelian reports one for a pair
        # outside the theorem's hypotheses (see test_not_integral_exit_code).
        assert argv[argv.index("mukai") + 1] == "chi-abelian"
        assert err.getvalue().startswith("error: not integral")
    else:
        assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# Tokens that argparse reads differently from their look, or refuses.
MUTANTS = [
    "--form", "--format=csv", "--modified=1", "--", "-h", "--help", "-5_0", "+4", " 5", "-",
    "--v=", "--v", "-3", "--check", "--term-budget", "--term-budget=-1", "--export=-x", "x", "",
]


@st.composite
def _mutated_argv(draw) -> list[str]:
    tmp = Path("tmp")
    options = draw(_global_options(tmp)) if draw(st.booleans()) else []
    command = draw(_command(tmp))
    argv = command + options if draw(st.integers(0, 5)) == 0 else options + command
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(0, len(argv)))
        mutation = draw(st.sampled_from(["insert", "replace", "repeat", "drop"]))
        if mutation == "insert":
            argv.insert(index, draw(st.sampled_from(MUTANTS)))
        elif mutation == "replace" and index < len(argv):
            argv[index] = draw(st.sampled_from(MUTANTS))
        elif mutation == "repeat":
            argv[index:index] = argv[draw(st.integers(0, len(argv))) :][:2]
        elif index < len(argv):
            del argv[index]
    return argv


PARSER = _build_parser()


def _argparse_vars(argv: list[str]) -> dict:
    return vars(PARSER.parse_args(argv))


@settings(database=None, deadline=None, max_examples=1500)
@given(argv=_mutated_argv())
def test_fast_parse_is_none_or_argparse(argv):
    fast = _fast_parse(argv)
    if fast is not None:
        assert fast == _argparse_vars(argv)


WELL_FORMED = [
    ["verlinde", "2", "1", "2"],
    ["--term-budget", "-1", "--format", "csv", "verlinde", "3", "-2", "3", "--modified", "--check-symmetry", "--float-oracle"],
    ["--config=c.json", "--lattice", "abelian_pp", "--precision=40", "mukai", "pair", "--v=1:1,0:0", "--w", "0:0,1:2"],
    ["--format=markdown", "mukai", "chi-k3", "--w=", "--v", "1:0,0:-1"],
    ["mukai", "chi-abelian", "--v=", "--w", "-1", "--variant=kummer"],
    ["mukai", "fm", "--v", "2:1,1:0"],
    ["mukai", "conjecture", "--v", "X", "--w", "X", "--H", "1,1", "--w-effective"],
    ["duality", "wedge", "4", "--export", "m.json", "2"],
    ["--term-budget=5000", "duality", "sym", "2", "2"],
    ["duality", "theta-vanishes", "--points=p.json"],
    ["elliptic", "normalize", "2", "-3", "-3"],
    ["elliptic", "nu", "2", "2", "8", "10"],
    ["elliptic", "theta-class", "2", "2", "8", "10"],
    ["elliptic", "dims", "-2", "2", "8", "10"],
]


def test_fast_parse_accepts_every_op():
    seen = set()
    for argv in WELL_FORMED:
        fast = _fast_parse(argv)
        assert fast is not None, argv
        assert fast == _argparse_vars(argv)
        # every global option is set, so _resolve_settings reads them as attributes
        assert {_dest(flag) for flag in GLOBAL_OPTIONS} <= fast.keys()
        seen.add((fast["command"], fast.get(f"{fast['command']}_op")))
    assert seen == {(command, op) for command, (_, _, ops) in COMMANDS.items() for op in ops}


# One command line for each kind that argparse must read: help, an
# abbreviation, "--", an unknown or misplaced option, a switch given a
# value, a value starting with "-" that is not an integer, a missing
# required option, a wrong positional count, a failed int() and a value
# outside its choices.
HANDED_TO_ARGPARSE = [
    ["-h"],
    ["verlinde", "2", "1", "2", "--help"],
    ["--form", "json", "verlinde", "2", "1", "2"],
    ["mukai", "chi-abelian", "--v", "X", "--w", "X", "--var", "s3"],
    ["verlinde", "--", "2", "1", "2"],
    ["verlinde", "2", "1", "2", "--format", "json"],
    ["--modified", "verlinde", "2", "1", "2"],
    ["verlinde", "2", "1", "2", "--modified=1"],
    ["mukai", "fm", "--v", "-1:0,0:0"],
    ["mukai", "fm", "--v=-x"],
    ["--term-budget", "-5_0", "verlinde", "2", "1", "2"],
    ["mukai", "pair", "--v", "X"],
    ["duality", "theta-vanishes"],
    ["verlinde", "3", "3"],
    ["elliptic", "nu", "1", "2", "3", "4", "5"],
    ["verlinde", "2", "1", "two"],
    ["--format", "xml", "verlinde", "2", "1", "2"],
    ["mukai", "chi-abelian", "--v", "X", "--w", "X", "--variant", "s5"],
]


def test_fast_parse_hands_the_rest_to_argparse():
    for argv in HANDED_TO_ARGPARSE:
        assert _fast_parse(argv) is None, argv
