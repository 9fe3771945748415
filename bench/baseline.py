"""Record the benchmark's baseline into bench/BASELINE.json.

    python3 bench/baseline.py

For every workload of BENCHMARK.json: ten untraced runs of its run_seconds
on seeds 0..9 (median and quartiles of each end-to-end metric, each spread
as a share of the median, and the same figures in measured seconds), then
one traced run at seed 0 (the per-layer table and the tracing overhead).
Runs go through the functions of ``bench/run.py``, one at a time, so each
report still runs in its own fresh child.  Run it from the repository root.
The frontier list below is carried into the file as is.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "BASELINE.json"
RUNS = 10
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

# Known cases that are not timed yet, with the measurement that keeps them out.
FRONTIER = [
    {"case": "hh free2_trunc_q --degree 3 (HH^3, normalized)",
     "reason": "refused by the default guard: the 9072x1512 coboundary has 13.7M entries, 7,336 nonzeros",
     "measured": "with guard=None: 91 s, 226 MB peak RSS, answer k^72"},
    {"case": "analyze free2_trunc_q --cap 1",
     "reason": "exit 3: the section system densifies to 174930x12348 and is refused",
     "measured": "refused after 1.3 s"},
    {"case": "hochschild_homology(free2_trunc_q, 2)", "reason": "too slow for one run", "measured": "118 s"},
    {"case": "hochschild_homology(Z[x]/(x^5), 3)", "reason": "too slow and too large for one run",
     "measured": "102 s, 418 MB peak RSS"},
    {"case": "analyze Z[x]/(x^4) --cap 2", "reason": "too slow for one run", "measured": "14 s"},
    {"case": "analyze M_3(Q) --cap 1", "reason": "too slow for one run", "measured": "more than 10 min, stopped"},
    {"case": "koszul --vars 4 --ring Q --cap 5", "reason": "too slow next to the other Koszul reports",
     "measured": "10.5 s"},
    {"case": "non-monomial basis changes (f_i += f_j)",
     "reason": "the cost of Z elimination depends strongly on the basis; seeds would not be comparable",
     "measured": "hh(Z[x]/(x^4), 0..4): 0.25-0.4 s on the shipped basis, 1.4-1.6 s after one transvection"},
]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, (_, unit) in runs[0].items():
        values = [r[name][0] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "values": values}
    return out


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {
        "about": "Seed baseline of the benchmark defined in BENCHMARK.json; written by bench/baseline.py. "
                 "end_to_end times are reference-speed seconds (measured time x calibration_ref_s / the "
                 "child's mean probe-loop time, calibration_s); end_to_end_measured holds the same "
                 "figures unscaled.",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "calibration_ref_s": bench.CAL_REF_S,
        "calibration_s": {},
        "seconds": seconds,
        "seeds": list(range(RUNS)),
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"]}
                    for m in spec["end_to_end"] + spec["per_layer"]},
        "end_to_end": {},
        "end_to_end_measured": {},
        "per_layer": {},
        "tracing_overhead_s": {},
        "failed": {},
        "frontier": FRONTIER,
    }
    for w in doc["workloads"]:
        outs = [bench.run(w, seed, seconds, False) for seed in range(RUNS)]
        doc["end_to_end"][w] = summarize([bench.end_to_end(o) for o in outs])
        doc["end_to_end_measured"][w] = summarize([bench.end_to_end(o, scale=False) for o in outs])
        doc["calibration_s"][w] = statistics.median(
            s["cal_s"] for o in outs for runs in o["samples"].values() for s in runs[False])
        traced = bench.run(w, 0, seconds, True)
        outs.append(traced)
        doc["failed"][w] = f"{sum(o['failed'] for o in outs)}/{sum(o['attempted'] for o in outs)}"
        for o in outs:
            for problem in o["problems"]:
                print(f"FAILED {w}: {problem}", file=sys.stderr)
        metrics, _ = bench.per_layer(traced)
        doc["per_layer"][w] = {k: v for k, (v, _) in metrics.items()}
        doc["tracing_overhead_s"][w] = doc["per_layer"][w]["trace.overhead_s"]
        print(w, {k: round(v["spread"], 3) for k, v in doc["end_to_end"][w].items()}, file=sys.stderr)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
