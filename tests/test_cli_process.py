"""The CLI as a process: its exit code and the bytes it writes.

``cli.run`` flushes stdout and stderr and ends the process with ``os._exit``,
so nothing written may depend on interpreter teardown.  Stdout goes to a
regular file, which is block-buffered, so a flush that is lost shows as
missing bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from thetacalc.cli import ENV_TERM_BUDGET, main

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"
K3 = ["--v=1:0,1:-1", "--w=2:1,3:-1"]
POINTS_TRUE = "tests/golden/corpus_points_true.json"

# One corpus record per subcommand and op, one each for exit 0, 2 and 3, and
# the 17,190-digit Verlinde number.
SLICE = [
    ["verlinde", "3", "4", "2", "--modified", "--check-symmetry", "--float-oracle"],
    ["mukai", "pair", *K3],
    ["--format", "markdown", "mukai", "chi-k3", *K3],
    ["--lattice", "abelian_pp", "mukai", "chi-abelian", "--v=1:1:0", "--w=1:2:4", "--variant", "s4"],
    ["--lattice", "abelian_pp", "mukai", "fm", "--v=3:2:1"],
    ["mukai", "conjecture", *K3, "--H=1,3"],
    ["duality", "wedge", "9", "4"],
    ["--format", "csv", "duality", "sym", "2", "3"],
    ["duality", "theta-vanishes", "--points", POINTS_TRUE],
    ["elliptic", "normalize", "3", "7", "-1"],
    ["elliptic", "nu", "2", "3", "12", "15"],
    ["elliptic", "theta-class", "2", "3", "12", "15"],
    ["elliptic", "dims", "2", "3", "12", "15"],
    ["verlinde", "0", "1", "2"],
    ["--term-budget", "10", "duality", "wedge", "6", "3"],
    ["verlinde", "2", "3", "20000"],
]
NO_TEARDOWN_NOISE = (b"Traceback", b"Exception ignored")
TIMEOUT = 60


def _env() -> dict:
    """The environment of a query process, with its stdout block-buffered."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    for name in (ENV_TERM_BUDGET, "PYTHONUNBUFFERED"):
        env.pop(name, None)
    return env


def _process(argv, stdout, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "thetacalc.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        cwd=cwd,
        env=_env(),
        timeout=TIMEOUT,
    )


def _in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def records():
    lines = CORPUS.read_text().splitlines()
    return {tuple(r["argv"]): r for r in map(json.loads, lines)}


@pytest.mark.parametrize("argv", SLICE, ids=" ".join)
def test_process_matches_corpus(argv, records, tmp_path):
    record = records[tuple(argv)]
    out = tmp_path / "stdout"
    with out.open("wb") as stdout:
        result = _process(argv, stdout)
    assert result.returncode == record["code"]
    assert out.read_bytes() == record["stdout"].encode("utf-8")
    assert result.stderr == record["stderr"].encode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [["duality", "wedge", "16", "8"], ["duality", "wedge", "5", "2", "--export", "w.json"]],
    ids=" ".join,
)
def test_process_writes_what_main_writes(argv, tmp_path, monkeypatch):
    """The ~190 KB wedge output and an export file hold every byte ``main`` writes in process."""
    inner, outer = tmp_path / "inner", tmp_path / "outer"
    inner.mkdir()
    outer.mkdir()
    monkeypatch.chdir(inner)
    code, expected = _in_process(argv)
    assert code == 0
    with (outer / "stdout").open("wb") as stdout:
        result = _process(argv, stdout, cwd=outer)
    assert result.returncode == 0 and result.stderr == b""
    assert (outer / "stdout").read_bytes() == expected.encode("utf-8")
    assert sorted(p.name for p in inner.iterdir()) == sorted(
        p.name for p in outer.iterdir() if p.name != "stdout"
    )
    for exported in inner.iterdir():
        assert (outer / exported.name).read_bytes() == exported.read_bytes()


def _assert_write_error(code: int, stderr: bytes) -> None:
    assert code == 2
    assert stderr.startswith(b"error: cannot write output: ")
    assert stderr.count(b"\n") == 1 and stderr.endswith(b"\n")
    assert not any(noise in stderr for noise in NO_TEARDOWN_NOISE)


def test_closed_pipe_exits_2_with_one_error_line():
    proc = subprocess.Popen(
        [sys.executable, "-m", "thetacalc.cli", "duality", "wedge", "16", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=_env(),
    )
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=TIMEOUT)
    _assert_write_error(proc.returncode, stderr)
    assert b"Broken pipe" in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_exits_2_with_one_error_line():
    with open("/dev/full", "wb") as full:
        result = _process(["verlinde", "2", "1", "2"], full)
    _assert_write_error(result.returncode, result.stderr)


# A query whose handler raises ArithmeticBugError, run through cli.run.  An
# exception that escapes run ends the process with 99, not with 1.
_ARITHMETIC_BUG = """\
import os, sys
from thetacalc import cli, errors, verlinde
def fail(*args, **kwargs):
    raise errors.ArithmeticBugError("forced failure")
verlinde.check_rank_level_symmetry = fail
sys.argv[1:] = ["verlinde", "2", "1", "2"]
try:
    cli.run()
except BaseException:
    os._exit(99)
"""
REFUSALS = [
    pytest.param(code, command, error, id=f"exit-{code}")
    for code, command, error in (
        (1, ["-c", _ARITHMETIC_BUG], b"error: forced failure\n"),
        (2, ["-m", "thetacalc.cli", "verlinde", "0", "1", "2"], b"error: "),
        (3, ["-m", "thetacalc.cli", "--term-budget", "2", "verlinde", "4", "4", "2"], b"error: term budget"),
        (64, ["-m", "thetacalc.cli", "verlinde", "2"], b"usage: thetacalc verlinde"),
    )
]


def _refusal(command, stderr) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *command],
        stdout=subprocess.PIPE,
        stderr=stderr,
        cwd=ROOT,
        env=_env(),
        timeout=TIMEOUT,
    )


@pytest.mark.parametrize("code, command, error", REFUSALS)
def test_refusal_exit_codes(code, command, error):
    result = _refusal(command, subprocess.PIPE)
    assert (result.returncode, result.stdout) == (code, b"")
    assert result.stderr.startswith(error)
    assert not any(noise in result.stderr for noise in NO_TEARDOWN_NOISE)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("code, command, error", REFUSALS)
def test_refusal_exit_codes_hold_when_stderr_is_full(code, command, error):
    """An error line that cannot be written leaves the exit code of the refusal."""
    with open("/dev/full", "wb") as full:
        result = _refusal(command, full)
    assert (result.returncode, result.stdout) == (code, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_and_stderr_exit_2():
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "thetacalc.cli", "verlinde", "2", "1", "2"],
            stdout=full,
            stderr=full,
            cwd=ROOT,
            env=_env(),
            timeout=TIMEOUT,
        )
    assert result.returncode == 2


def test_closed_stdout_exits_0_silently():
    command = f"{shlex.quote(sys.executable)} -m thetacalc.cli verlinde 2 1 2 >&-"
    result = subprocess.run(
        command, shell=True, capture_output=True, cwd=ROOT, env=_env(), timeout=TIMEOUT
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")


class _FailingStream(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_main_reports_a_failed_write(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FailingStream())
    assert main(["verlinde", "2", "1", "2"]) == 2
    assert capsys.readouterr().err == "error: cannot write output: [Errno 28] No space left on device\n"
