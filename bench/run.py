"""The repository benchmark: cold-start reports through the public engine API.

    python3 bench/run.py --workload hh-sweep --seed 0 --seconds 40 --trace 0

Run it from the repository root.  Every report runs in a fresh child
interpreter (``bench/child.py``), one at a time: a closed loop with a single
client, at most two processes.  Passes over the workload's report list
repeat until ``--seconds`` is used up (at least three untraced passes); pass k
of a non-zero seed gives every algebra its own basis variant k.
Times are scaled to a reference machine speed: each child also times a
fixed pure-Python probe loop just before and after its report and every
20 ms during it, and a time t measured next to a harmonic-mean probe time c
is reported as t * CAL_REF_S / c, so every "s" metric is in reference-speed
seconds (``bench/BASELINE.json`` keeps the measured seconds and the probe
time next to them).  On a shared 2-vCPU VM the speed changes by a third or
more within seconds; ``bench/BASELINE.json`` shows the quartile spreads over
ten seeds with and without the scaling.
A report's time is the median over the passes, ``wall_s`` sums them, split
by scalar ring, and ``setup_s`` is the median over every report start.
With ``--trace 1`` passes alternate untraced and traced, and the per-layer
metrics come from the traced ones.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.

    python3 bench/run.py --freeze

re-records ``bench/expected.json`` from one seed-0 pass of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import COUNT_SPAN, LAYERS  # noqa: E402

RINGS = ("Z", "Q", "Fp")
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s budget
CAL_REF_S = 0.0004  # probe time that defines the reference speed
MIN_PASSES = 3
TRACE_TOL_S = 0.005  # report root span vs the child's own ready..end stamps; allows one preemption
F2, F3 = {"Fp": 2}, {"Fp": 3}


# -- workloads ------------------------------------------------------------------------


def _hh(w, rid, doc, degrees, ref=None, homology=False):
    spec = {"id": rid, "ring": inputs.ring_key(doc["scalars"]), "kind": "hh",
            "algebra": w.algebra(rid.split(":")[0], doc), "degrees": degrees, "homology": homology}
    if ref:
        spec["ref"] = dict(ref, degrees=degrees, scalars=doc["scalars"], homology=homology)
    return spec


def hh_sweep(w) -> list[dict]:
    """Library degree sweeps hh(A, A, 0..k) and hochschild_homology(A, A, 0..k)."""
    reports = []
    for sc, n, top in (("Z", 3, 4), ("Z", 4, 4), ("Z", 5, 3), ("Z", 6, 3), (F2, 4, 4), (F3, 6, 3), (F2, 8, 2)):
        name = f"trunc{n}_{inputs.ring_key(sc)}{inputs.modulus(sc) or ''}"
        ref = {"family": "truncated_poly", "n": n}
        reports.append(_hh(w, f"{name}:hh", inputs.truncated_poly(sc, n), list(range(top + 1)), ref))
    reports.append(_hh(w, "trunc4_Z:hom", inputs.truncated_poly("Z", 4), [0, 1, 2],
                       {"family": "truncated_poly", "n": 4}, homology=True))
    free2 = inputs.free2_truncated("Q")
    reports.append(_hh(w, "free2_Q:hh", free2, [0, 1, 2]))
    reports.append(_hh(w, "free2_Q:hom", free2, [0, 1], homology=True))
    reports.append(_hh(w, "m3_Q:hh", inputs.matrix_algebra("Q", 3), [0, 1], {"family": "matrix_algebra"}))
    return reports


def _trunc_fields(sc, n) -> dict:
    return {"center_dim": n, "hh1": checks.truncated_poly_hh(sc, n, 1)}


def analyze(w) -> list[dict]:
    """CLI reports through hochschild.cli.main on the fixture corpus."""
    reports = []

    def cli(rid, ring, argv, ref=None):
        spec = {"id": rid, "ring": ring, "kind": "cli", "argv": argv}
        if ref:
            spec["ref"] = ref
        reports.append(spec)

    closed = {
        "x3_z": _trunc_fields("Z", 3),
        "dual_z": _trunc_fields("Z", 2),
        "dual_q": _trunc_fields("Q", 2),
        "dual_f2": _trunc_fields(F2, 2),
        "m2_q": {"center_dim": 1, "hh1": [0, []]},
        "ut2_q": {"center_dim": 1, "hh1": [0, []]},
    }
    for stem, cap in (("x3_z", 2), ("m2_q", 1), ("ut2_q", 3), ("dual_z", 2), ("dual_q", 2),
                      ("dual_f2", 2), ("zxz", 2), ("scalar_z", 2)):
        doc = inputs.fixture(f"{stem}.json")
        path = w.algebra(stem, doc)
        ref = {"family": "fields", "fields": closed[stem]} if stem in closed else None
        cli(f"analyze:{stem}", inputs.ring_key(doc["scalars"]), ["analyze", path, "--cap", str(cap)], ref)
    # m2_q has no unital basis, so the hh subcommand canonicalizes it first
    cli("hh:m2_q:2", "Q", ["hh", str(w.dir / "m2_q.json"), "--degree", "2"],
        {"family": "fields", "fields": {"free_rank": 0, "torsion": []}})
    free2 = w.algebra("free2_trunc_q", inputs.fixture("free2_trunc_q.json"))
    cli("hh:free2_trunc_q:2", "Q", ["hh", free2, "--degree", "2"])
    dual_f3 = w.algebra("dual_f3", inputs.truncated_poly(F3, 2))
    cli("extensions:enumerate:dual_f3", "Fp", ["extensions", dual_f3, "--enumerate"],
        {"family": "extension_count", "scalars": F3, "n": 2})
    dual_f2 = str(w.dir / "dual_f2.json")
    regular = w.regular_bimodule("dual_f2")
    cocycle = w.cochain_file("cocycle_dual_f2_xx.json", inputs.fixture("cocycle_dual_f2_xx.json"), "dual_f2", "matrix")
    cli("extensions:class:cocycle_dual_f2_xx", "Fp", ["extensions", dual_f2, regular, "--class", cocycle])
    for ext in ("ext_dual_f2_nontrivial", "ext_dual_f2_trivial"):
        path = w.cochain_file(f"{ext}.json", inputs.fixture(f"{ext}.json"), "dual_f2", "cocycle")
        cli(f"extensions:lift:{ext}", "Fp", ["extensions", dual_f2, regular, "--lift", path])
    return reports


def koszul_tor(w) -> list[dict]:
    """graded_koszul_tor ladders plus the bundled koszul --finite instances."""
    reports = []
    for sc, v, cap in (("Z", 2, 6), ("Z", 3, 5), ("Z", 4, 5), ("Q", 2, 6), ("Q", 3, 5), ("Q", 4, 4),
                       (F2, 3, 5), (F2, 4, 5)):
        key = inputs.ring_key(sc)
        reports.append({"id": f"koszul:{key}{inputs.modulus(sc) or ''}:v{v}:cap{cap}", "ring": key,
                        "kind": "koszul", "vars": v, "scalars": sc, "cap": cap,
                        "ref": {"family": "koszul", "vars": v}})
    w.algebra("scalar_z", inputs.fixture("scalar_z.json"))
    for inst in ("koszul_z_mod2", "koszul_z_seq23"):
        path = w.write(f"{inst}.json", inputs.fixture(f"{inst}.json"))
        reports.append({"id": f"koszul:finite:{inst}", "ring": "Z", "kind": "cli",
                        "argv": ["koszul", "--finite", path]})
    return reports


WORKLOADS = {"hh-sweep": hh_sweep, "analyze": analyze, "koszul-tor": koszul_tor}


# -- per-layer metric names -------------------------------------------------------------

# functions seen calling other traced functions; for the rest total_s equals self_s
WITH_TOTAL = {
    "cli.main", "io_json.load_bimodule", "algebra.hom_bimodule", "cohomology.hh",
    "cohomology.hochschild_homology", "cohomology.center", "cohomology.derivations",
    "cohomology.inner_derivations", "cohomology.hh1_report", "bar.syzygy",
    "matrix.quotient_generators", "matrix.subquotient_invariants",
    "matrix.cokernel_invariants", "projectivity.separability_idempotent",
    "projectivity.omega_is_projective", "projectivity.is_quasi_free", "projectivity.hcdim_scan",
    "extensions.enumerate_extension_classes", "extensions.is_two_cocycle", "extensions.lift_exists",
    "extensions.cocycles_cohomologous", "koszul.graded_koszul_tor", "koszul.finite_koszul_tor",
    "koszul.homology_of_presented", "koszul.regular_sequence_check",
}
RATIOS = [
    ("matrix.density", "ratio"),
    ("memo.hit_ratio", "ratio"),
    ("extensions.is_two_cocycle.accept_ratio", "ratio"),
    ("guard.refusals", "count"),
    ("trace.overhead_s", "s"),
]


def per_layer_metrics() -> list[tuple[str, str, str, str]]:
    """(metric, function, kind, unit) for every per-layer metric."""
    out = []
    for layer, names in LAYERS.items():
        for n in names:
            fn = f"{layer}.{n}"
            out.append((f"{fn}.calls", fn, "calls", "count"))
            out.append((f"{fn}.self_s", fn, "self_s", "s"))
            if fn in WITH_TOTAL:
                out.append((f"{fn}.total_s", fn, "total_s", "s"))
            if layer == "matrix":
                out.append((f"{fn}.in_entries", fn, "in_entries", "count"))
                out.append((f"{fn}.in_nnz", fn, "in_nnz", "count"))
    out.extend((name, None, None, unit) for name, unit in RATIOS)
    return out


# -- running ----------------------------------------------------------------------------


class Abort(Exception):
    """The benchmark itself cannot run here (no engine, broken child)."""


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_report(spec_path: Path, traced: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    start = clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), "1" if traced else "0"],
            env=env, capture_output=True, text=True, timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "timeout": True}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise Abort(f"child printed nothing (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    res = json.loads(lines[-1])
    if res.get("phase") == "setup":
        raise Abort(f"the engine does not import: {res['error'].strip().splitlines()[-1]}")
    res["setup_s"] = res["ready"] - start
    res["work_s"] = res["end"] - res["ready"]
    return res


def check_engine_source() -> None:
    init = Path("src/hochschild/__init__.py")
    if not init.is_file():
        raise Abort("src/hochschild is missing; run from the repository root")


def prepare(workload: str, workdir: Path, seed: int, variant: int) -> tuple[list, list]:
    """Write one pass's inputs (basis variant `variant` of `seed`); return specs and spec files."""
    writer = inputs.InputWriter(workdir / f"pass{variant}", seed, variant)
    reports = WORKLOADS[workload](writer)
    paths = []
    for i, spec in enumerate(reports):
        spec["pass"] = variant
        spec["spans_out"] = str(writer.dir / f"spans-{i}.jsonl")
        paths.append(writer.write(f"report-{i}.spec", spec))
    return reports, paths


def run(workload: str, seed: int, seconds: float, trace: bool, freeze: bool = False) -> dict:
    """Repeat passes over the workload's reports; pass k uses basis variant k of the seed."""
    check_engine_source()
    t0 = clock()
    deadline = t0 + RUN_LIMIT_S
    workdir = Path(".bench_work") / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        expected = {} if freeze else checks.load_expected()
        reports, _ = prepare(workload, workdir, seed, 0)
        samples = {spec["id"]: {False: [], True: []} for spec in reports}
        out = {"reports": reports, "samples": samples, "passes": {False: [], True: []},
               "attempted": 0, "failed": 0, "problems": [], "frozen": {}}
        passes = out["passes"]
        span_files: list = []
        timed_out = False
        while not timed_out:
            traced = trace and len(passes[True]) < len(passes[False])
            specs, paths = prepare(workload, workdir, seed, len(passes[False]) + len(passes[True]))
            pass_t0 = clock()
            for spec, path in zip(specs, paths):
                res = run_report(Path(path), traced, deadline)
                out["attempted"] += 1
                bad = [res["error"]] if res.get("error") else []
                if not bad and freeze:
                    out["frozen"][spec["id"]] = res["answers"]
                elif not bad:
                    bad = checks.check(spec, res["answers"], seed, expected)
                if traced and "trace" in res:
                    tr = res["trace"]
                    bad.extend(f"trace: {e}" for e in tr["nesting_errors"])
                    if abs(tr["root_s"] - res["work_s"]) > TRACE_TOL_S:
                        bad.append(f"trace root spans {tr['root_s']} s, the report took {res['work_s']} s")
                    span_files.append(spec["spans_out"])
                if bad:
                    out["failed"] += 1
                    out["problems"].append(f"{spec['id']}: {'; '.join(bad)}")
                if res.get("timeout"):
                    timed_out = True
                    break
                samples[spec["id"]][traced].append(res)
            passes[traced].append(clock() - pass_t0)
            if freeze:
                break
            done = len(passes[False]) + len(passes[True])
            next_cost = max(passes[not traced] or passes[traced])  # stay inside --seconds
            need = 2 * (MIN_PASSES - 1) if trace else MIN_PASSES
            if done >= need and clock() - t0 + next_cost > seconds:
                break
            if clock() + next_cost > deadline:
                break
        if trace:
            trace_dir = Path(".bench_trace")
            trace_dir.mkdir(exist_ok=True)
            with open(trace_dir / f"{workload}-seed{seed}.jsonl", "w") as fh:
                fh.write('["pass", "report", "span", "parent", "name", "start", "end"]\n')
                for name in span_files:
                    with open(name) as part:
                        shutil.copyfileobj(part, fh)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            Path(".bench_work").rmdir()
        except OSError:
            pass


# -- metrics ------------------------------------------------------------------------------


def scaled(sample: dict, key: str, scale: bool = True) -> float:
    """A time of one child at the reference speed (as measured if not `scale`)."""
    return sample[key] * CAL_REF_S / sample["cal_s"] if scale else sample[key]


def wall_by_ring(reports, samples, traced: bool, scale: bool = True) -> dict:
    """Sum over reports of each report's median time over the passes, by scalar ring."""
    by_ring = dict.fromkeys(RINGS, 0.0)
    for spec in reports:
        times = [scaled(s, "work_s", scale) for s in samples[spec["id"]][traced]]
        if times:
            by_ring[spec["ring"]] += statistics.median(times)
    return by_ring


def end_to_end(out, scale: bool = True) -> dict:
    reports, samples = out["reports"], out["samples"]
    by_ring = wall_by_ring(reports, samples, False, scale)
    plain = [s for spec in reports for s in samples[spec["id"]][False]]
    return {
        "setup_s": (statistics.median(scaled(s, "setup_s", scale) for s in plain), "s"),
        "wall_s": (sum(by_ring.values()), "s"),
        "wall_s.Z": (by_ring["Z"], "s"),
        "wall_s.Q": (by_ring["Q"], "s"),
        "wall_s.Fp": (by_ring["Fp"], "s"),
        "peak_rss_mb": (max(s["rss_kb"] for s in plain) / 1024.0, "MB"),
    }


def per_layer(out) -> tuple[dict, list[str]]:
    reports, samples = out["reports"], out["samples"]
    traced_passes = len(out["passes"][True])
    notes: set[str] = set()
    per_pass = []  # one dict per traced pass: fn -> kind -> value
    memo = []
    accepted = refusals = 0
    missing: set[str] = set()
    for p in range(traced_passes):
        acc: dict = {}
        hits = misses = 0
        memo_ok = True
        for spec in reports:
            runs = samples[spec["id"]][True]
            if p >= len(runs) or "trace" not in runs[p]:
                continue
            tr = runs[p]["trace"]
            notes.update(tr["notes"])
            missing.update(tr["missing"])
            accepted += tr["accepted"]
            refusals += tr["refusals"]
            if tr["memo"] is None:
                memo_ok = False
            else:
                hits += tr["memo"][0]
                misses += tr["memo"][1]
            for fn, st in tr["names"].items():
                a = acc.setdefault(fn, {})
                for k, v in st.items():
                    a[k] = None if v is None or a.get(k, 0) is None else a.get(k, 0) + v
        per_pass.append(acc)
        memo.append((hits, misses) if memo_ok else None)
    n = max(traced_passes, 1)
    metrics = {}
    for metric, fn, kind, unit in per_layer_metrics():
        if fn is None:
            continue
        if fn in missing:
            metrics[metric] = (None, unit)
            continue
        vals = [pp.get(fn, {}).get(kind, 0) for pp in per_pass]
        if any(v is None for v in vals):
            metrics[metric] = (None, unit)
        else:
            metrics[metric] = (statistics.median(vals) if vals else 0, unit)
    ent = nnz = 0
    for pp in per_pass:
        for fn, st in pp.items():
            if fn.startswith("matrix.") and "in_entries" in st:
                ent += st["in_entries"]
                nnz = None if nnz is None or st["in_nnz"] is None else nnz + st["in_nnz"]
    metrics["matrix.density"] = (None if nnz is None else (nnz / ent if ent else 0.0), "ratio")
    if any(m is None for m in memo):
        metrics["memo.hit_ratio"] = (None, "ratio")
    else:
        h, m = sum(x[0] for x in memo), sum(x[1] for x in memo)
        metrics["memo.hit_ratio"] = (h / (h + m) if h + m else 0.0, "ratio")
    calls = sum(pp.get("extensions.is_two_cocycle", {}).get("calls", 0) for pp in per_pass)
    metrics["extensions.is_two_cocycle.accept_ratio"] = (accepted / calls if calls else 0.0, "ratio")
    metrics["guard.refusals"] = (refusals / n, "count")
    traced_wall = sum(wall_by_ring(reports, samples, True).values())
    plain_wall = sum(wall_by_ring(reports, samples, False).values())
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    count_self = statistics.median(pp.get(COUNT_SPAN, {}).get("self_s", 0.0) for pp in per_pass) if per_pass else 0.0
    info = [f"traced wall_s {traced_wall:.4f} s vs untraced {plain_wall:.4f} s; "
            f"of the overhead, {count_self:.4f} s per pass went to measuring matrix arguments"]
    return metrics, info + sorted(notes)


# -- entry point ------------------------------------------------------------------------------


def report(workload: str, seed: int, trace: bool, out: dict) -> None:
    """Print the run's metrics by name and unit; the last line is the JSON result."""
    for p in out["problems"]:
        print(f"FAILED {p}", file=sys.stderr)
    for spec in out["reports"]:
        for traced in (False, True):
            runs = out["samples"][spec["id"]][traced]
            if runs:
                work = statistics.median(scaled(r, "work_s") for r in runs)
                raw = statistics.median(r["work_s"] for r in runs)
                rss = max(r["rss_kb"] for r in runs) / 1024
                print(f"  {'traced ' if traced else ''}{spec['id']} [{spec['ring']}]: {work:.4f} s scaled, "
                      f"{raw:.4f} s raw, median of {len(runs)}, peak {rss:.1f} MB", file=sys.stderr)
    metrics, info = per_layer(out) if trace else (end_to_end(out), [])
    plain, traced = out["passes"][False], out["passes"][True]
    print(f"workload {workload} seed {seed}: {len(out['reports'])} reports x "
          f"{len(plain)} untraced + {len(traced)} traced passes; "
          f"failed_frac {out['failed'] / out['attempted']:.4f} ({out['failed']}/{out['attempted']})")
    for line in info:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def freeze() -> int:
    frozen = {}
    for name in WORKLOADS:
        res = run(name, 0, 0, False, freeze=True)
        if res["problems"]:
            print("\n".join(res["problems"]), file=sys.stderr)
            return 1
        frozen.update(res["frozen"])
    checks.EXPECTED.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(frozen)} reports into {checks.EXPECTED}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], help="'all' runs each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true", help="re-record bench/expected.json at seed 0")
    args = ap.parse_args(argv)
    if not args.freeze and not args.workload:
        ap.error("--workload is required")
    try:
        if args.freeze:
            return freeze()
        for name in WORKLOADS if args.workload == "all" else [args.workload]:
            report(name, args.seed, bool(args.trace), run(name, args.seed, args.seconds, bool(args.trace)))
    except Abort as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
