"""Run one benchmark report in a fresh interpreter and print its result as JSON.

    python3 bench/child.py <spec.json> <trace 0|1>

The spec names the report kind and its input files.  The engine is reached
only through ``hochschild.cli.main`` and public library functions, and its
memo tables start empty because the process is new.  Times are read on the
monotonic clock shared with the parent, so the parent can take set-up time
from its own spawn instant to ``ready``, stamped once the report's inputs are
parsed and built.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


def _invs(x) -> list:
    return [x.free_rank, [int(t) for t in x.torsion]]


def prepare_hh(spec):
    from hochschild import hh, hochschild_homology
    from hochschild.algebra import regular_bimodule
    from hochschild.io_json import load_algebra

    A = load_algebra(spec["algebra"])
    M = regular_bimodule(A)
    if spec.get("homology"):
        return lambda: {"degrees": [_invs(hochschild_homology(A, M, n)) for n in spec["degrees"]]}
    return lambda: {"degrees": [_invs(hh(A, M, n).invariants) for n in spec["degrees"]]}


def prepare_koszul(spec):
    from hochschild import graded_koszul_tor
    from hochschild.io_json import ring_from_json

    ring = ring_from_json(spec["scalars"])

    def work() -> dict:
        r = graded_koszul_tor(spec["vars"], ring, spec["cap"])
        return {
            "tor": [_invs(t) for t in r.tor],
            "by_degree": [[[e, _invs(h)] for e, h in piece] for piece in r.by_degree],
            "fd": r.fd_certificate,
        }

    return work


def prepare_cli(spec):
    """The CLI parses its own input files, so for these reports parsing is timed as work."""
    from hochschild.cli import main

    def work() -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(spec["argv"]))
        text = out.getvalue()
        try:
            doc = json.loads(text)
        except ValueError:
            doc = text
        return {"exit": code, "doc": doc}

    return work


# each builds the report's inputs (set-up) and returns the timed work
PREPARE = {"hh": prepare_hh, "koszul": prepare_koszul, "cli": prepare_cli}


PROBE_TICK_S = 0.02  # how often the machine's speed is probed during the work


def probe() -> float:
    """Time one run of a fixed pure-Python loop of dict, int and Fraction work.

    The parent divides the report's times by the probes' harmonic mean time to
    cancel the drift of the machine's speed.
    """
    from fractions import Fraction

    t0 = time.perf_counter()
    d: dict = {}
    acc = Fraction(0)
    for i in range(1, 500):
        d[i % 97] = d.get(i % 97, 0) + i * i % 1009
        if i % 10 == 0:
            acc += Fraction(i, i + 1)
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    traced = sys.argv[2] == "1"
    try:
        import hochschild  # noqa: F401
        import hochschild.cli  # noqa: F401
        import hochschild.io_json  # noqa: F401
    except Exception:
        print(json.dumps({"phase": "setup", "error": traceback.format_exc()}))
        return 3
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    probes = [probe() for _ in range(3)]
    result = {"phase": "work", "error": None, "answers": None}
    work = None
    setup = tracer.begin("setup") if tracer else None
    try:
        work = PREPARE[spec["kind"]](spec)
    except Exception as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.end(setup)
    result["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    root = tracer.begin("report") if tracer else None
    # the speed can change within one report, so it is also probed on a timer
    signal.signal(signal.SIGALRM, lambda *_: probes.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_TICK_S, PROBE_TICK_S)
    try:
        if work is not None:
            result["answers"] = work()
    except Exception as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer:
            tracer.end(root)
    result["end"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    probes += [probe() for _ in range(3)]
    # harmonic mean: ticks are evenly spaced in time, so this averages the speed over the work
    result["cal_s"] = len(probes) / sum(1 / t for t in probes)
    # On Linux ru_maxrss also covers the spawning parent's pages at the exec
    # instant, which is why the parent keeps spans in files, not in memory.
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["trace"] = tracer.summary()
        with open(spec["spans_out"], "w") as fh:
            for row in tracer.span_rows(spec["pass"], spec["id"]):
                fh.write(json.dumps(row) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
