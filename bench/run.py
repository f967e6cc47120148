"""Benchmark of the cutpoint library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --check

``--trace 0`` prints the end-to-end metrics: set-up time from fresh
interpreters, then one worker process that answers questions in a closed
loop for S seconds of question time, each answer checked against an oracle
outside the timed interval.  ``--trace 1`` prints the per-layer metrics:
per-module import times from ``python -X importtime``, and a worker that
runs a fixed set of decks untraced and then traced (see ``tracer.py``).
``--check`` runs every workload at small size with all oracles on.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is built from the
``src`` directory of the checkout that holds this file; without it the run
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("unary-long", "parikh-enum", "cli-session")
#: fresh interpreters whose median set-up time is reported
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
#: the whole run must finish well inside the three minutes it is allowed
DEADLINE_S = 170
MODULES = ("cutpoint", "analysis", "automata", "cli", "constructions", "documents",
           "exactmath", "langsem", "verify")


class Runner:
    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def _run(self, argv):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("time budget exhausted")
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=left)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[1:4])} failed:\n{proc.stderr[-2000:]}")
        return proc

    def worker(self, *args):
        proc = self._run([sys.executable, str(HERE / "worker.py"), *map(str, args)])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def import_profile(self) -> dict:
        """Median self time of each module's import over fresh interpreters."""
        self._run([sys.executable, "-c", "import cutpoint.cli"])  # write bytecode once
        samples = {m: [] for m in MODULES}
        for _ in range(IMPORT_REPEATS):
            proc = self._run([sys.executable, "-X", "importtime", "-c", "import cutpoint.cli"])
            seen = {}
            for line in proc.stderr.splitlines():
                parts = [p.strip() for p in line.split("|")]
                if len(parts) == 3 and parts[0].startswith("import time:"):
                    name = parts[2]
                    if name == "cutpoint" or name.startswith("cutpoint."):
                        seen[name.rpartition(".")[2]] = int(parts[0].split()[-1]) * 1e-6
            for m in MODULES:
                samples[m].append(seen.get(m, 0.0))
        return {f"{m}.import_s": statistics.median(v) for m, v in samples.items()}


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner, workload, seed, seconds):
    runner.worker("setup", workload, seed)  # writes bytecode; not measured
    setups = [runner.worker("setup", workload, seed)["setup_s"] for _ in range(SETUP_REPEATS)]
    loop = runner.worker("loop", workload, seed, seconds)
    lat = loop["latencies"]
    n = len(lat)
    busy = sum(lat)
    failed = len(loop["reasons"])
    p90 = quantile(lat, 90)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {SETUP_REPEATS} fresh interpreters"),
        "questions_per_s": (n / busy, "1/s", f"{n} questions in {busy:.2f} s of question time"),
        "q_p50_ms": (statistics.median(lat) * 1e3, "ms", f"n={n}"),
        "q_p90_ms": (p90 * 1e3, "ms", f"n={n}, {sum(x > p90 for x in lat)} beyond"),
        "answered_frac": ((n - failed) / n, "ratio", f"failed {failed} of {n}"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB", "1 worker process"),
    }
    return metrics, n, loop["reasons"], loop["known_defect"]


#: per-layer metric units (names not listed here are counts)
UNITS = {"self_s": "s", "import_s": "s", "max_bits": "bits", "calls_per_class": "ratio",
         "matmul_per_value": "ratio", "overhead": "ratio"}


def per_layer(runner, workload, seed):
    imports = runner.import_profile()
    traced = runner.worker("trace", workload, seed)
    n = traced["attempted"]
    metrics = {}
    for name, value in {**traced["metrics"], **imports}.items():
        unit = UNITS.get(name.rpartition(".")[2], "count")
        note = f"median of {IMPORT_REPEATS} imports" if name.endswith("import_s") else f"{n} questions"
        metrics[name] = (value, unit, note)
    return metrics, n, traced["reasons"], traced["known_defect"]


def report(workload, seed, trace, metrics, attempted, reasons, known):
    failed = len(reasons)
    unexpected = sorted({r for r in reasons if r != known})
    print(f"workload {workload}  seed {seed}  trace {trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    if reasons:
        print(f"  failures: {failed} of {attempted}")
        for r in sorted(set(reasons)):
            print(f"    {reasons.count(r):>5}  {r}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))


def check(runner) -> int:
    out = runner.worker("check")
    bad = 0
    for name, res in out.items():
        if name == "known_defect":
            continue
        unexpected = [r for r in res["reasons"] if r != out["known_defect"]]
        bad += len(unexpected)
        status = "ok" if not unexpected else "FAIL"
        print(f"{status:<4} {name:<14} {res['attempted']:>4} questions, "
              f"{len(res['reasons'])} failed, {len(unexpected)} unexpected")
        for r in sorted(set(unexpected)):
            print(f"       {r}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="short correctness-only run")
    args = parser.parse_args()
    if not (SRC / "cutpoint" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'cutpoint'}", file=sys.stderr)
        return 2
    runner = Runner()
    try:
        if args.check:
            return check(runner)
        if args.workload is None:
            parser.error("--workload is required")
        if args.trace:
            measured = per_layer(runner, args.workload, args.seed)
        else:
            measured = end_to_end(runner, args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.trace, *measured)
    return 0


if __name__ == "__main__":
    sys.exit(main())
