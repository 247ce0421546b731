"""Span tracing of the ``sasrel`` modules, installed from outside the package.

Each hook replaces one public function at the name its caller resolves (a
module global or a class attribute) with a wrapper that records a span:
name, start, end and parent.  Nothing under ``src/`` is edited; the wrapper
calls the original and returns its result unchanged.

The wrapper also times itself: ``Tracer.overhead_s`` is the time spent in
wrappers outside the spans they record, the direct cost of tracing.

Per-layer metrics are derived from the spans after the study.  A metric whose
hook never fired is reported as ``None`` and the hook is listed by name, so a
refactor that routes around a hook cannot read as a free layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children_s: float = 0.0
    rows: int = 0
    cols: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children_s


@dataclass
class Tracer:
    """In-memory span recorder; one per traced study."""

    spans: list[Span] = field(default_factory=list)
    results: dict[str, list] = field(default_factory=dict)
    overhead_s: float = 0.0
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, start=time.perf_counter(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.seconds

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if shape else 1


# Per-call sizes recorded on the span as (rows, cols), from the call's arguments.
def _size_mcs(args, kwargs):
    return int(kwargs["n"] if "n" in kwargs else args[2]), 0


def _size_design(args, kwargs):
    basis, points = args[0], args[1]
    return _rows(points), int(basis.cardinality)


def _size_points(args, kwargs):
    # bound methods: args[0] is the instance, args[1] the point block
    return _rows(args[1]), 0


# (span name, owner, attribute, size function, keep return value)
# The owner is where the caller resolves the name at call time.
HOOKS = (
    ("reliability.mcs", "sasrel.cli", "mcs_probability", _size_mcs, False),
    ("reliability.spce", "sasrel.cli", "spce_only_pipeline", None, False),
    ("reliability.sas", "sasrel.cli", "sas_hpcfe_pipeline", None, False),
    ("benchmarks.evaluate", "sasrel.reliability:LimitState", "evaluate",
     _size_points, False),
    ("probspace.ppf", "sasrel.probspace:Marginal", "ppf", _size_points, False),
    ("probspace.sobol", "sasrel.reliability", "sobol_points", None, False),
    ("probspace.sobol", "sasrel.activesub", "sobol_points", None, False),
    ("probspace.sobol", "sasrel.hpcfe", "sobol_points", None, False),
    ("polybasis.design", "sasrel.spce", "eval_design_matrix", _size_design, False),
    ("polybasis.design", "sasrel.hpcfe", "eval_design_matrix", _size_design, False),
    ("polybasis.gradient", "sasrel.spce", "eval_basis_gradient", _size_design, False),
    ("spce.fit_lar", "sasrel.reliability", "fit_lar", None, True),
    ("spce.predict", "sasrel.spce:SparsePceModel", "predict", _size_points, False),
    ("activesub.subspace", "sasrel.reliability", "subspace_from_surrogate", None, True),
    ("hpcfe.fit", "sasrel.hpcfe", "fit", None, True),
    ("hpcfe.corr", "sasrel.hpcfe", "correlation_matrix", None, False),
    ("hpcfe.homotopy", "sasrel.hpcfe", "homotopy_solve", None, False),
    ("hpcfe.predict", "sasrel.hpcfe:HpcfeModel", "predict_mean", _size_points,
     False),
)


def _resolve_owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _wrap(tracer: Tracer, name: str, fn, size, keep):
    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        entered = time.perf_counter()
        rows, cols = size(args, kwargs) if size is not None else (0, 0)
        span = tracer.open(name)
        span.rows, span.cols = rows, cols
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if keep:
            tracer.results.setdefault(name, []).append(out)
        tracer.overhead_s += time.perf_counter() - entered - span.seconds
        return out
    return hooked


def install(tracer: Tracer) -> None:
    """Install every hook for the rest of this interpreter's life."""
    for name, owner_path, attr, size, keep in HOOKS:
        owner = _resolve_owner(owner_path)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, _wrap(tracer, name, original, size, keep))


def hook_names(span_name: str) -> list[str]:
    """The patched names behind one span name, e.g. ``sasrel.hpcfe.fit``."""
    return [f"{owner.replace(':', '.')}.{attr}"
            for name, owner, attr, _, _ in HOOKS if name == span_name]


_METHODS = ("reliability.mcs", "reliability.spce", "reliability.sas")

# Per-layer metric -> (unit, spans it needs).  Every name here is reported.
LAYER_METRICS = {
    "cli.self_s": ("s", _METHODS),
    "reliability.mcs_s": ("s", ("reliability.mcs",)),
    "reliability.mcs_rows_per_s": ("1/s", ("reliability.mcs",)),
    "reliability.spce_s": ("s", ("reliability.spce",)),
    "reliability.sas_s": ("s", ("reliability.sas",)),
    "reliability.sas_self_s": ("s", ("reliability.sas",)),
    "benchmarks.evaluate_calls": ("count", ("benchmarks.evaluate",)),
    "benchmarks.evaluate_rows": ("count", ("benchmarks.evaluate",)),
    "benchmarks.evaluate_s": ("s", ("benchmarks.evaluate",)),
    "probspace.ppf_rows": ("count", ("probspace.ppf",)),
    "probspace.ppf_s": ("s", ("probspace.ppf",)),
    "probspace.sobol_s": ("s", ("probspace.sobol",)),
    "polybasis.design_calls": ("count", ("polybasis.design",)),
    "polybasis.design_rows": ("count", ("polybasis.design",)),
    "polybasis.design_s": ("s", ("polybasis.design",)),
    "polybasis.design_mb_computed": ("MB", ("polybasis.design",)),
    "polybasis.gradient_s": ("s", ("polybasis.gradient",)),
    "spce.fit_lar_calls": ("count", ("spce.fit_lar",)),
    "spce.fit_lar_s": ("s", ("spce.fit_lar",)),
    "spce.predict_rows": ("count", ("spce.predict",)),
    "spce.predict_s": ("s", ("spce.predict",)),
    "spce.n_active": ("count", ("spce.fit_lar",)),
    "activesub.subspace_s": ("s", ("activesub.subspace",)),
    "activesub.rank": ("count", ("activesub.subspace",)),
    "hpcfe.fit_s": ("s", ("hpcfe.fit",)),
    "hpcfe.corr_calls": ("count", ("hpcfe.corr",)),
    "hpcfe.corr_s": ("s", ("hpcfe.corr",)),
    "hpcfe.homotopy_calls": ("count", ("hpcfe.homotopy",)),
    "hpcfe.homotopy_s": ("s", ("hpcfe.homotopy",)),
    "hpcfe.fit_self_s": ("s", ("hpcfe.fit",)),
    "hpcfe.trend_cols": ("count", ("hpcfe.fit",)),
    "hpcfe.predict_rows": ("count", ("hpcfe.predict",)),
    "hpcfe.predict_s": ("s", ("hpcfe.predict",)),
    "hpcfe.kernel_block_mb_computed": ("MB", ("hpcfe.predict",)),
}


def layer_metrics(tracer: Tracer, study_s: float, n_train: int) -> tuple[dict, list[str]]:
    """Per-layer values from one traced study, and the hooks that never fired.

    ``cli.self_s`` is the study minus its three method spans.  A ``*_self_s``
    is the span minus the part its hooked children cover.  ``*_mb_computed``
    values are sizes derived from array shapes (8 bytes per float), not
    measured memory.
    """
    def total(name):
        return sum(s.seconds for s in tracer.named(name))

    def self_total(name):
        return sum(s.self_seconds for s in tracer.named(name))

    def rows(name):
        return sum(s.rows for s in tracer.named(name))

    def calls(name):
        return len(tracer.named(name))

    values = {
        "cli.self_s": study_s - sum(total(m) for m in _METHODS),
        "reliability.mcs_s": total("reliability.mcs"),
        "reliability.mcs_rows_per_s": rows("reliability.mcs")
        / max(total("reliability.mcs"), 1e-12),
        "reliability.spce_s": total("reliability.spce"),
        "reliability.sas_s": total("reliability.sas"),
        "reliability.sas_self_s": self_total("reliability.sas"),
        "benchmarks.evaluate_calls": calls("benchmarks.evaluate"),
        "benchmarks.evaluate_rows": rows("benchmarks.evaluate"),
        "benchmarks.evaluate_s": total("benchmarks.evaluate"),
        "probspace.ppf_rows": rows("probspace.ppf"),
        "probspace.ppf_s": total("probspace.ppf"),
        "probspace.sobol_s": total("probspace.sobol"),
        "polybasis.design_calls": calls("polybasis.design"),
        "polybasis.design_rows": rows("polybasis.design"),
        "polybasis.design_s": total("polybasis.design"),
        "polybasis.design_mb_computed": sum(
            s.rows * s.cols * 8 for s in tracer.named("polybasis.design")) / 1e6,
        "polybasis.gradient_s": total("polybasis.gradient"),
        "spce.fit_lar_calls": calls("spce.fit_lar"),
        "spce.fit_lar_s": total("spce.fit_lar"),
        "spce.predict_rows": rows("spce.predict"),
        "spce.predict_s": total("spce.predict"),
        "spce.n_active": None,
        "activesub.subspace_s": total("activesub.subspace"),
        "activesub.rank": None,
        "hpcfe.fit_s": total("hpcfe.fit"),
        "hpcfe.corr_calls": calls("hpcfe.corr"),
        "hpcfe.corr_s": total("hpcfe.corr"),
        "hpcfe.homotopy_calls": calls("hpcfe.homotopy"),
        "hpcfe.homotopy_s": total("hpcfe.homotopy"),
        "hpcfe.fit_self_s": self_total("hpcfe.fit"),
        "hpcfe.trend_cols": None,
        "hpcfe.predict_rows": rows("hpcfe.predict"),
        "hpcfe.predict_s": total("hpcfe.predict"),
        "hpcfe.kernel_block_mb_computed": max(
            (s.rows for s in tracer.named("hpcfe.predict")), default=0)
        * n_train * 8 / 1e6,
    }
    kept = tracer.results
    if kept.get("spce.fit_lar"):
        values["spce.n_active"] = kept["spce.fit_lar"][-1].n_active
    if kept.get("activesub.subspace"):
        values["activesub.rank"] = kept["activesub.subspace"][-1].r
    if kept.get("hpcfe.fit"):
        values["hpcfe.trend_cols"] = int(kept["hpcfe.fit"][-1].basis_map.shape[0])

    unfired = []
    for metric, (_, span_names) in LAYER_METRICS.items():
        for span_name in span_names:
            if not tracer.named(span_name):
                values[metric] = None
                unfired.extend(h for h in hook_names(span_name) if h not in unfired)
    return values, unfired
