"""thetacalc benchmark: one CLI query per process, one client, closed loop.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Run from the root of a checkout.  Every query is a fresh
``python -m thetacalc.cli ...`` process that imports ``src/`` of that
checkout through PYTHONPATH, so the number includes interpreter start and
imports, as a user sees it.  The next query starts only when the previous
one has exited.  With ``--trace 0`` a fixed reference program
(``REFERENCE_CODE``) runs after every query, and the gated time metrics are
in units of its time ("refs"), which cancels most of the host's drift in
speed; the table also gives them in seconds.

Set-up generates the seeded inputs, copies ``src/`` to a fresh directory
and runs one cold query, which compiles the bytecode.  The timed loop then
runs whole rounds of the workload's pool until the next round would end
after ``--seconds``.  With ``--trace 0`` the set-up is repeated
``SETUP_REPS - 1`` more times at evenly spaced points of the loop, with the
loop's clock stopped, and ``setup_s`` is the median of all of them: set-ups
spread over the run see the same swings of host speed as the queries do.
Outputs are checked after the loop (``oracle.py``), and for the default seed
also against ``expected/<workload>.json`` byte for byte (as SHA-256).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` every query runs twice, plain and
under ``traced_cli.py``, and the JSON holds the per-layer metrics.  The
lines before it are a human-readable table.  The exit code is 0 only when
every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import workloads
from spans import read_spans, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORK = Path("bench/.work")  # relative to ROOT, so generated argv is the same in every checkout
SETUP_REPS = 9
QUERY_TIMEOUT_S = 60
COLD_QUERY = workloads.Query(("verlinde", "2", "1", "2"), "verlinde",
                             params={"r": 2, "k": 1, "g": 2})
# The reference program run after every untraced query: an interpreter start
# with site, stdlib imports and big-integer Fraction arithmetic, the kinds of
# work a query does, but none of thetacalc's code (-I ignores PYTHONPATH).
REFERENCE_CODE = (
    "import argparse, dataclasses, decimal, enum, functools, json, pathlib, random, statistics, typing\n"
    "from fractions import Fraction\n"
    "s = Fraction(0)\n"
    "for i in range(1, 1500):\n"
    "    s += Fraction(1, i)\n"
)
# A query's time is divided by the median time of the reference programs run
# after it and after the REF_WINDOW queries on each side of it.
REF_WINDOW = 2
# Percentile reported as query_tail_ref: the highest of 50/75/90/95/99 that
# leaves at least ten samples beyond it in every workload's default-length
# run, also on a slow host.  Fixed, so that two commits are compared at the
# same percentile.
TAIL_PERCENTILE = 75


@dataclass
class Outcome:
    query: workloads.Query
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    spawned: float
    reaped: float
    trace_prefix: str | None = None
    ref_wall_s: float | None = None
    ref_cpu_s: float | None = None


class Client:
    """Runs one query process at a time through ``spawner.py``.

    Queries are not forked from this process, whose size would otherwise
    show up in their max-RSS (see ``spawner.py``).
    """

    def __init__(self, src: Path):
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "THETACALC"))}
        env["PYTHONPATH"] = str(src)
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        self.traces = 0

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=QUERY_TIMEOUT_S)

    def spawn(self, cmd: list[str]) -> tuple[int, float, float, float, int]:
        """Runs ``cmd`` to its end; returns (code, spawned, reaped, cpu_s, maxrss_kb)."""
        self.spawner.stdin.write(json.dumps([cmd, str(WORK / "stdout"), str(WORK / "stderr"),
                                             QUERY_TIMEOUT_S]) + "\n")
        self.spawner.stdin.flush()
        return tuple(json.loads(self.spawner.stdout.readline()))

    def run(self, query: workloads.Query, traced: bool = False) -> Outcome:
        prefix = None
        if traced:
            prefix = str(WORK / "trace" / str(self.traces))
            self.traces += 1
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), prefix, *query.argv]
        else:
            cmd = [sys.executable, "-m", "thetacalc.cli", *query.argv]
        code, spawned, reaped, cpu_s, maxrss_kb = self.spawn(cmd)
        return Outcome(query, code, (WORK / "stdout").read_bytes(), (WORK / "stderr").read_bytes(),
                       reaped - spawned, cpu_s, maxrss_kb, spawned, reaped, prefix)

    def reference(self) -> tuple[float, float]:
        """Runs the reference program; returns its wall and CPU seconds."""
        code, spawned, reaped, cpu_s, _ = self.spawn([sys.executable, "-I", "-c", REFERENCE_CODE])
        if code != 0:
            sys.exit(f"the reference program exited with {code}")
        return reaped - spawned, cpu_s


def setup_once(workload: str, seed: int, rep: int):
    """Inputs, a fresh copy of src/ and one cold query; returns (pool, client).

    Every set-up of a run writes the same input files, so a repeated set-up
    leaves the inputs of the timed queries as they were.
    """
    pool = workloads.build(workload, seed, WORK / "inputs")
    src = WORK / f"src-{rep}"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree("src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    client = Client(src.resolve())
    outcome = client.run(COLD_QUERY)
    try:
        oracle.check(COLD_QUERY, outcome.code, outcome.stdout.decode(), outcome.stderr.decode())
    except oracle.Mismatch as exc:
        client.close()
        sys.exit(f"cold query failed: {exc}")
    return pool, client


def timed_setup(workload: str, seed: int, rep: int):
    """``setup_once`` and its wall time; returns (pool, client, seconds)."""
    start = time.perf_counter()
    pool, client = setup_once(workload, seed, rep)
    return pool, client, time.perf_counter() - start


def timed_loop(client: Client, pool, seconds: float, traced: bool,
               spare_setup, spares: int) -> tuple[list, float, list]:
    """Whole rounds, closed loop; stops when the next round would end after ``seconds``.

    Without ``traced``, the reference program runs after every query, and
    its times go into the query's outcome.  With ``traced``, each plain
    outcome is followed by its traced one instead.  Between queries,
    ``spare_setup(i)`` runs once the loop's clock passes ``i / (spares + 1)``
    of ``seconds``, for i = 1 .. ``spares``; the clock stops while it runs.
    Spares not reached in the loop run after it.  Returns the outcomes, the
    loop's time without the reference programs, and the spare set-up times.
    """
    outcomes: list[Outcome] = []
    setups: list[float] = []
    start = time.perf_counter()
    paused = referenced = 0.0

    def clock() -> float:
        return time.perf_counter() - start - paused

    longest = 0.0
    for round_no in itertools.count():
        round_start = clock()
        for query in pool[round_no % len(pool)]:
            outcome = client.run(query)
            outcomes.append(outcome)
            if traced:
                outcomes.append(client.run(query, traced=True))
            else:
                ref_start = time.perf_counter()
                outcome.ref_wall_s, outcome.ref_cpu_s = client.reference()
                referenced += time.perf_counter() - ref_start
            if len(setups) < spares and clock() >= (len(setups) + 1) * seconds / (spares + 1):
                pause_start = time.perf_counter()
                setups.append(spare_setup(len(setups) + 1))
                paused += time.perf_counter() - pause_start
        now = clock()
        longest = max(longest, now - round_start)
        if now + longest > seconds:
            break
    loop_s = clock() - referenced
    while len(setups) < spares:
        setups.append(spare_setup(len(setups) + 1))
    return outcomes, loop_s, setups


def load_expected(workload: str, seed: int) -> dict | None:
    path = BENCH / "expected" / f"{workload}.json"
    if seed != workloads.DEFAULT_SEED or not path.exists():
        return None
    return json.loads(path.read_text())["outputs"]


def expected_key(argv) -> str:
    return json.dumps(list(argv))


def count_failures(outcomes, expected) -> tuple[int, list[str]]:
    failed, messages = 0, []
    for o in outcomes:
        try:
            oracle.check(o.query, o.code, o.stdout.decode(), o.stderr.decode())
            if expected is not None:
                want = expected.get(expected_key(o.query.argv))
                got = {"code": o.code, "sha256": hashlib.sha256(o.stdout).hexdigest()}
                if want != got:
                    raise oracle.Mismatch(f"stdout differs from expected output {want}")
        except oracle.Mismatch as exc:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{' '.join(o.query.argv)}: {exc}")
    return failed, messages


def end_to_end(outcomes, loop_s, setups):
    """The metrics of BENCHMARK.json, then the same figures in seconds for the table.

    A ``_ref`` metric divides each query's time by that of the reference
    program run around it (``REF_WINDOW``), so it is in units of that
    program's time.  The host's speed drifts from minute to minute, and the
    ratio cancels most of that where seconds do not.
    """
    pct = TAIL_PERCENTILE
    n = len(outcomes)

    def tail(values):
        # Interpolated between neighbouring samples, so p50 is the median.
        return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]

    def around(values, i):
        return statistics.median(values[max(i - REF_WINDOW, 0):i + REF_WINDOW + 1])

    walls = [o.wall_s for o in outcomes]
    ref_walls = [o.ref_wall_s for o in outcomes]
    ref_cpus = [o.ref_cpu_s for o in outcomes]
    rel = [o.wall_s / around(ref_walls, i) for i, o in enumerate(outcomes)]
    rel_cpu = [o.cpu_s / around(ref_cpus, i) for i, o in enumerate(outcomes)]
    rel_tail, wall_tail = tail(rel), tail(walls)
    beyond = sum(r > rel_tail for r in rel)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "queries_per_ref": (n / sum(rel), "1/ref", f"{n} queries / their summed time in refs"),
        "query_p50_ref": (statistics.median(rel), "ref", f"n={n}"),
        "query_tail_ref": (rel_tail, "ref", f"p{pct}, n={n}, {beyond} beyond"),
        "query_cpu_ref": (statistics.median(rel_cpu), "ref", f"median child user+sys / reference's, n={n}"),
        "peak_rss_mb": (max(o.maxrss_kb for o in outcomes) / 1024, "MB", f"max child max-RSS, n={n}"),
    }
    in_seconds = {
        "reference_s": (statistics.median(ref_walls), "s", f"median wall of the reference program, n={n}"),
        "queries_per_s": (n / loop_s, "1/s", f"{n} queries in {loop_s:.2f} s"),
        "query_p50_s": (statistics.median(walls), "s", f"n={n}"),
        "query_tail_s": (wall_tail, "s", f"p{pct}, n={n}, {sum(w > wall_tail for w in walls)} beyond"),
        "query_cpu_s": (statistics.median(o.cpu_s for o in outcomes), "s", f"median child user+sys, n={n}"),
    }
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{pct}", file=sys.stderr)
    return metrics, in_seconds


def per_layer(outcomes):
    """Per-query means of the traced queries' layer numbers, and the tracing overhead."""
    # Each plain outcome is followed by its traced one.  A traced query killed
    # by the timeout wrote no trace; it is counted as failed and its pair is left out.
    pairs = [(plain, traced) for plain, traced in zip(outcomes[0::2], outcomes[1::2])
             if Path(traced.trace_prefix + ".json").exists()]
    if not pairs:
        sys.exit("no traced query wrote a trace")
    traced = [t for _, t in pairs]
    totals: dict[str, float] = {}
    hits = calls = 0
    bits = groups = 0
    interp = imports = 0.0

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for o in traced:
        meta = json.loads(Path(o.trace_prefix + ".json").read_text())
        spans = read_spans(o.trace_prefix + ".bin", meta["span_count"])
        for name, row in summarize(meta["names"], *spans).items():
            for field, value in row.items():
                add(f"{name}:{field}", value)
        interp += (meta["t_start"] - o.spawned) + (o.reaped - meta["t_end"])
        imports += meta["t_imported"] - meta["t_import"]
        hits += meta["two_sin_hits"]
        calls += meta["two_sin_hits"] + meta["two_sin_misses"]
        bits = max(bits, meta["coeff_bits_max"])
        groups += meta["groups_count"]

    n = len(traced)

    def mean(key):
        return totals.get(key, 0.0) / n

    def layer_sum(layer, field):
        return sum(v for k, v in totals.items() if k.startswith(layer + ".") and k.endswith(":" + field)) / n

    metrics = {
        "cli.bare_interp_s": (interp / n, "s"),
        "cli.import_s": (imports / n, "s"),
        "cli.main_self_s": (mean("cli.main:self_s"), "s"),
        "verlinde.sum_calls_per_query": (mean("verlinde.verlinde_number:count"), "count"),
        "verlinde.groups_count": (groups / n, "count"),
        "verlinde.groups_s": (mean("verlinde.groups:s"), "s"),
        "verlinde.verlinde_number_self_s": (mean("verlinde.verlinde_number:self_s"), "s"),
        "verlinde.float_oracle_s": (mean("verlinde.float_oracle:s"), "s"),
        "cyclotomic.mul_count": (mean("cyclotomic.mul:count"), "count"),
        "cyclotomic.mul_s": (mean("cyclotomic.mul:s"), "s"),
        "cyclotomic.two_sin_hit_ratio": (hits / calls if calls else 0.0, "ratio"),
        "cyclotomic.pow_count": (mean("cyclotomic.pow:count"), "count"),
        "cyclotomic.pow_self_s": (mean("cyclotomic.pow:self_s"), "s"),
        "cyclotomic.coeff_bits_max": (bits, "bits"),
        "cyclotomic.to_rational_s": (mean("cyclotomic.to_rational:s"), "s"),
        "power_duality.det_exact_count": (mean("power_duality.det_exact:count"), "count"),
        "power_duality.det_exact_s": (mean("power_duality.det_exact:s"), "s"),
        "power_duality.wedge_coefficients_self_s": (mean("power_duality.wedge_coefficients:self_s"), "s"),
        "power_duality.wedge_duality_matrix_s": (mean("power_duality.wedge_duality_matrix:s"), "s"),
        "power_duality.sym_duality_matrix_s": (mean("power_duality.sym_duality_matrix:s"), "s"),
        "power_duality.theta_vanishes_s": (mean("power_duality.theta_vanishes:s"), "s"),
        "mukai.calls": (layer_sum("mukai", "entries"), "count"),
        "mukai.s": (layer_sum("mukai", "entry_s"), "s"),
        "elliptic_k3.calls": (layer_sum("elliptic_k3", "entries"), "count"),
        "elliptic_k3.s": (layer_sum("elliptic_k3", "entry_s"), "s"),
        "trace.query_s": (sum(o.wall_s for o in traced) / n, "s"),
        "trace.overhead_frac": (
            sum(t.wall_s for _, t in pairs) / sum(p.wall_s for p, _ in pairs) - 1, "ratio"),
    }
    notes = {
        "cyclotomic.two_sin_hit_ratio": f"hits / calls over {n} traced queries",
        "cyclotomic.coeff_bits_max": f"max over {n} traced queries",
        "trace.overhead_frac": f"traced / plain wall - 1 over {n} query pairs",
    }
    return {
        name: (value, unit, notes.get(name, f"mean over {n} traced queries"))
        for name, (value, unit) in metrics.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not Path("src/thetacalc/cli.py").is_file():
        sys.exit("src/thetacalc/cli.py not found: run from the root of a thetacalc checkout")
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "trace").mkdir(parents=True)

    def spare_setup(rep: int) -> float:
        _, spare, seconds = timed_setup(args.workload, args.seed, rep)
        spare.close()
        return seconds

    pool, client, first = timed_setup(args.workload, args.seed, 0)
    try:
        outcomes, loop_s, spares = timed_loop(
            client, pool, args.seconds, traced=bool(args.trace), spare_setup=spare_setup,
            spares=0 if args.trace else SETUP_REPS - 1)
    finally:
        client.close()
    setups = [first, *spares]
    failed, messages = count_failures(outcomes, load_expected(args.workload, args.seed))
    if args.trace:
        metrics, table_only = per_layer(outcomes), {}
    else:
        metrics, table_only = end_to_end(outcomes, loop_s, setups)
    shutil.rmtree(WORK / "trace", ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(outcomes)} queries, {failed} failed")
    # Not in the JSON metrics: it is 0 whenever the program is correct (see README.md).
    print(f"  {'failed_frac':42s} {failed / len(outcomes):14.6g} {'ratio':6s} "
          f"failed / attempted, n={len(outcomes)}")
    for name, (value, unit, note) in {**metrics, **table_only}.items():
        print(f"  {name:42s} {value:14.6g} {unit:6s} {note}")
    for message in messages:
        print(f"  FAILED {message}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
