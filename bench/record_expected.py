"""Record the expected outputs of the default seed's pool.

    python3 bench/record_expected.py [WORKLOAD ...]

For each workload (all by default) this runs every distinct query of the
default seed's pool once, checks it with ``oracle.py``, and writes
``expected/<workload>.json``: the exit code and the SHA-256 of stdout per
argv.  Nothing is written for a workload whose outputs fail a check.
``run.py`` compares every query of a default-seed run against this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def record(workload: str) -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    (run.WORK / "trace").mkdir(parents=True)
    pool, client = run.setup_once(workload, workloads.DEFAULT_SEED, 0)
    queries = list(dict.fromkeys(q for rnd in pool for q in rnd))
    try:
        outcomes = [client.run(q) for q in queries]
    finally:
        client.close()
    failed, messages = run.count_failures(outcomes, None)
    if failed:
        print(f"{workload}: {failed} outputs fail their checks, nothing written", file=sys.stderr)
        print("\n".join(messages), file=sys.stderr)
        return 1
    outputs = {
        run.expected_key(o.query.argv): {"code": o.code, "sha256": hashlib.sha256(o.stdout).hexdigest()}
        for o in outcomes
    }
    path = run.BENCH / "expected" / f"{workload}.json"
    path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "outputs": outputs}, indent=1) + "\n")
    print(f"{workload}: {len(outputs)} outputs written to {path.relative_to(run.ROOT)}")
    return 0


def main() -> int:
    os.chdir(run.ROOT)
    names = sys.argv[1:] or sorted(workloads.ROUNDS)
    unknown = set(names) - set(workloads.ROUNDS)
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(sorted(unknown))}")
    status = max(record(name) for name in names)
    shutil.rmtree(run.WORK, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
