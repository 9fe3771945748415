"""Span tracer for one report, installed from outside the engine.

Wraps the public functions listed in LAYERS, rebinding each name in every
loaded ``hochschild.*`` module that holds it, and records one span per call
(id, parent, name, start, end) in memory.  Self time is a span's duration
minus its children's; ``nesting_errors`` checks that this is a true split of
the report's time, with every span inside its parent and after its previous
sibling.  Matrix-layer arguments are measured through ``rows`` and ``cols``
only, and nonzeros through a public ``nnz`` if the matrix has one, otherwise
through ``row_list``.  A name that no longer exists is reported as null with
a note instead of failing.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = {
    "cli": ["main"],
    "io_json": ["load_algebra", "load_bimodule", "dumps"],
    "algebra": ["with_unital_basis", "regular_bimodule", "hom_bimodule"],
    "cohomology": [
        "coboundary_matrix", "hh", "hochschild_homology", "center",
        "derivations", "inner_derivations", "hh1_report",
    ],
    "bar": ["syzygy", "chain_actions"],
    "matrix": [
        "kernel_basis", "column_span_basis", "coords_in_span", "quotient_generators",
        "subquotient_invariants", "cokernel_invariants", "smith_normal_form", "solve",
        "rank", "Matrix.__mul__",
    ],
    "projectivity": ["separability_idempotent", "omega_is_projective", "is_quasi_free", "hcdim_scan"],
    "extensions": ["enumerate_extension_classes", "is_two_cocycle", "lift_exists", "cocycles_cohomologous"],
    "koszul": [
        "graded_koszul_tor", "finite_koszul_tor", "homology_of_presented",
        "koszul_differential", "regular_sequence_check",
    ],
}

MATRIX_LAYER = "matrix"
COUNT_SPAN = "trace.count"  # time spent measuring arguments, kept out of the callers' self time
ACCEPT_TRACKED = "extensions.is_two_cocycle"

clock = time.perf_counter


def _matrix_shape(x):
    rows, cols = getattr(x, "rows", None), getattr(x, "cols", None)
    if isinstance(rows, int) and isinstance(cols, int):
        return rows, cols
    return None


def _nnz(x):
    nnz = getattr(x, "nnz", None)
    if nnz is not None:
        return nnz() if callable(nnz) else nnz
    row_list = getattr(x, "row_list", None)
    if row_list is None:
        return None
    return sum(1 for i in range(x.rows) for v in row_list(i) if v)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, outermost]
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.inputs: dict[str, list] = {}  # name -> [entries, nnz or None]
        self.accepted = 0
        self.refusals = 0
        self._seen_refusals: set[int] = set()
        self.notes: list[str] = []
        self.missing: set[str] = set()
        self.caches: list = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == "hochschild" or n.startswith("hochschild.")]
        seen = set()
        for m in mods:
            for v in vars(m).values():
                info = getattr(v, "cache_info", None)
                if callable(info) and id(v) not in seen:
                    seen.add(id(v))
                    self.caches.append(v)
        if not self.caches:
            self.notes.append("memo.hit_ratio: no memo table exposes cache_info()")
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"hochschild.{layer}")
            except ImportError as exc:
                for n in names:
                    self._gone(f"{layer}.{n}", f"module hochschild.{layer} is gone ({exc})")
                continue
            for n in names:
                self._wrap(module, layer, n, mods)

    def _gone(self, name: str, why: str) -> None:
        self.missing.add(name)
        self.notes.append(f"{name}: {why}")

    def _wrap(self, module, layer: str, n: str, mods) -> None:
        name = f"{layer}.{n}"
        if "." in n:
            cls_name, attr = n.split(".")
            cls = getattr(module, cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is None:
                self._gone(name, f"{cls_name}.{attr} is gone")
                return
            setattr(cls, attr, self._wrapper(name, fn, layer == MATRIX_LAYER))
            return
        fn = getattr(module, n, None)
        if not callable(fn):
            self._gone(name, "function is gone")
            return
        w = self._wrapper(name, fn, layer == MATRIX_LAYER)
        for m in mods:
            for k, v in list(vars(m).items()):
                if v is fn:
                    setattr(m, k, w)

    # -- recording ---------------------------------------------------------------

    def _open(self, name: str):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        depth = self.active.get(name, 0)
        self.active[name] = depth + 1
        span = [sid, parent, name, clock(), None, depth == 0]
        self.spans.append(span)
        self.stack.append(sid)
        return span

    def _close(self, span) -> None:
        span[4] = clock()
        self.stack.pop()
        self.active[span[2]] -= 1

    def _measure(self, name: str, args, kwargs) -> None:
        span = self._open(COUNT_SPAN)
        try:
            acc = self.inputs.setdefault(name, [0, 0])
            for x in list(args) + list(kwargs.values()):
                shape = _matrix_shape(x)
                if shape is None:
                    continue
                acc[0] += shape[0] * shape[1]
                nnz = _nnz(x)
                if nnz is None or acc[1] is None:
                    if acc[1] is not None:
                        self.notes.append(f"{name}.in_nnz: matrix has neither nnz nor row_list")
                    acc[1] = None
                else:
                    acc[1] += nnz
        finally:
            self._close(span)

    def _wrapper(self, name: str, fn, measure: bool):
        tracer = self

        def traced(*args, **kwargs):
            if measure:
                tracer._measure(name, args, kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "SizeGuardError" and id(exc) not in tracer._seen_refusals:
                    tracer._seen_refusals.add(id(exc))
                    tracer.refusals += 1
                raise
            finally:
                tracer._close(span)
            if name == ACCEPT_TRACKED and isinstance(result, tuple) and result and result[0] is True:
                tracer.accepted += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- the set-up and report roots --------------------------------------------

    def begin(self, name: str):
        return self._open(name)

    def end(self, root) -> None:
        self._close(root)

    # -- summary ---------------------------------------------------------------------

    def summary(self) -> dict:
        child_time: dict[int, float] = {}
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        names: dict[str, dict] = {}
        for sid, parent, name, t0, t1, outer in self.spans:
            dur = t1 - t0
            s = names.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += dur - child_time.get(sid, 0.0)
            if outer:
                s["total_s"] += dur
        for name, (entries, nnz) in self.inputs.items():
            names[name]["in_entries"] = entries
            names[name]["in_nnz"] = nnz
        root = next(sp for sp in self.spans if sp[2] == "report")
        hits = misses = None
        if self.caches:
            hits = sum(c.cache_info().hits for c in self.caches)
            misses = sum(c.cache_info().misses for c in self.caches)
        return {
            "names": names,
            "missing": sorted(self.missing),
            "root_s": root[4] - root[3],
            "nesting_errors": self.nesting_errors(),
            "accepted": self.accepted,
            "refusals": self.refusals,
            "memo": None if hits is None else [hits, misses],
            "notes": self.notes,
        }

    def nesting_errors(self) -> list[str]:
        """Spans that break the tree, so that self times would not split the report's time."""
        errors = []
        last_end: dict = {}  # parent id -> end of its latest child
        for sid, parent, name, t0, t1, _ in self.spans:
            if parent is not None and not self.spans[parent][3] <= t0 <= t1 <= self.spans[parent][4]:
                errors.append(f"{name} #{sid} lies outside its parent #{parent}")
            if t0 < last_end.get(parent, t0):
                errors.append(f"{name} #{sid} overlaps its previous sibling")
            last_end[parent] = t1
        return errors[:5]

    def span_rows(self, pass_no: int, report_id: str) -> list:
        return [[pass_no, report_id, sid, parent, name, t0, t1] for sid, parent, name, t0, t1, _ in self.spans]
