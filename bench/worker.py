"""One phase of one workload, run in a fresh interpreter by ``run.py``.

    python3 bench/worker.py setup WORKLOAD SEED
    python3 bench/worker.py loop  WORKLOAD SEED SECONDS
    python3 bench/worker.py trace WORKLOAD SEED
    python3 bench/worker.py check

Prints one JSON object on its last line.  ``cutpoint`` must come from the
``src`` directory next to this one; the phase fails otherwise.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = (HERE.parent / "src").resolve()

from tracer import Tracer  # noqa: E402
from workloads import KNOWN_DEFECT, WORKLOADS  # noqa: E402


def import_program(wl):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cutpoint

    if wl.needs_cli:
        import cutpoint.cli  # noqa: F401
    if not Path(cutpoint.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cutpoint imported from {cutpoint.__file__}, not from {SRC}")
    return cutpoint


def timed_ask(wl, q):
    """(seconds, answer, error) of one question."""
    err = answer = None
    t0 = time.perf_counter()
    try:
        answer = wl.ask(q)
    except Exception as e:  # a failed question is counted, not fatal
        err = f"exception {type(e).__name__}: {e}"
    return time.perf_counter() - t0, answer, err


def run_loop(wl, seconds=None, decks=None):
    """Closed loop over whole decks until ``seconds`` of question time have
    passed, or over the first ``decks`` decks.  The oracle check of each
    answer runs between questions, outside the timed interval."""
    latencies, reasons = [], []
    busy, k = 0.0, 0
    while (busy < seconds) if decks is None else (k < decks):
        for q in wl.deck(k):
            dt, answer, err = timed_ask(wl, q)
            busy += dt
            latencies.append(dt)
            reason = err or wl.check(q, answer)
            if reason:
                reasons.append(reason)
        k += 1
    return latencies, reasons


def traced_pass(wl, decks):
    """Ask every question of the first ``decks`` decks untraced and then
    traced, back to back, so that drifts in machine speed cancel in the
    overhead ratio.  Returns the tracer, the overhead and the errors that
    only the traced ask raised."""
    tracer = Tracer()
    plain = traced = 0.0
    errors = []
    for k in range(decks):
        for i, q in enumerate(wl.deck(k)):
            dt, _, err = timed_ask(wl, q)
            plain += dt
            tracer.install()
            tracer.begin_question(f"{k}.{i}")
            try:
                dt, _, err2 = timed_ask(wl, q)
            finally:
                tracer.end_question()
                tracer.restore()
            traced += dt
            if err2 and not err:
                errors.append(f"traced only: {err2}")
    return tracer, traced / plain, errors


def phase_setup(wl):
    t0 = time.perf_counter()
    cp = import_program(wl)
    wl.build(cp)
    return {"setup_s": time.perf_counter() - t0}


def phase_loop(wl, seconds):
    wl.build(import_program(wl))
    latencies, reasons = run_loop(wl, seconds=seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reasons += wl.finish()
    return {"latencies": latencies, "reasons": reasons, "peak_rss_mb": peak_kib / 1024}


def phase_trace(wl, spans_path):
    """A pass with oracle checks, then the traced pass over the same decks."""
    wl.build(import_program(wl))
    _, reasons = run_loop(wl, decks=wl.trace_decks)
    tracer, overhead, errors = traced_pass(wl, wl.trace_decks)
    reasons += errors + wl.finish()
    metrics = tracer.metrics()
    metrics["trace.overhead"] = overhead
    tracer.write_spans(spans_path)
    return {"metrics": metrics, "reasons": reasons,
            "attempted": tracer.stats["question"].calls, "spans": len(tracer.spans)}


def phase_check():
    """Every workload at small size: one deck with all oracles, then the
    same deck traced, in one interpreter."""
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(seed=1, small=True)
        try:
            wl.build(import_program(wl))
            latencies, reasons = run_loop(wl, decks=1)
            tracer, _, errors = traced_pass(wl, 1)
            reasons += errors + wl.finish()
            out[name] = {"attempted": len(latencies), "reasons": reasons,
                         "metrics": tracer.metrics()}
        finally:
            wl.close()
    return out


def main(argv):
    phase = argv[0]
    if phase == "check":
        result = phase_check()
    else:
        name, seed = argv[1], int(argv[2])
        wl = WORKLOADS[name](seed)
        try:
            if phase == "setup":
                result = phase_setup(wl)
            elif phase == "loop":
                result = phase_loop(wl, float(argv[3]))
            elif phase == "trace":
                out = HERE / "out"
                out.mkdir(exist_ok=True)
                result = phase_trace(wl, out / f"spans-{name}-{seed}.jsonl")
            else:
                raise SystemExit(f"unknown phase {phase!r}")
        finally:
            wl.close()
    result["known_defect"] = KNOWN_DEFECT
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
