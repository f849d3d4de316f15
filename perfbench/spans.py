"""In-memory spans around fconc's public functions, and the per-layer metrics
derived from them.

Tracing works from outside the program: ``instrument`` rebinds each public
function named in ``LAYERS`` in every fconc module that imported it (for
example ``fconc.probe.reg_inc_beta`` and ``fconc.cli.infimum``) to a wrapper
that records a span, and restores the originals on exit. Nothing under
``src/`` is edited.

Spans are recorded in the tracing process only. Grid-scan stripes that run in
pool workers are therefore invisible here; ``replay_stripes`` supplies the
per-stripe layer split instead.
"""

from __future__ import annotations

import os
import statistics
import time
import uuid
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import import_module

import numpy as np

# Modules whose imported names are rebound; each calls into another layer.
CALLER_MODULES = ("fconc.cli", "fconc.probe", "fconc.fdist", "fconc.verify")

VERIFY_CHECKS = (
    "check_recurrence",
    "check_monotone_b",
    "check_limit",
    "check_kappa_monotone",
    "check_oracle_agreement",
)


def _beta_attrs(x, a, b, *_args, **_kwargs):
    # sym: elements on the symmetry branch of reg_inc_beta, x > (a+1)/(a+b+2)
    x, a, b = (np.asarray(v, dtype=np.float64) for v in (x, a, b))
    return {
        "elements": int(np.broadcast(x, a, b).size),
        "sym": int(np.count_nonzero(x > (a + 1.0) / (a + b + 2.0))),
    }


def _gamma_attrs(a, x, *_args, **_kwargs):
    return {"elements": int(np.broadcast(np.asarray(a), np.asarray(x)).size)}


# (defining module, public name, span name, attribute function)
LAYERS = (
    ("fconc.probe", "infimum", "probe.infimum", None),
    ("fconc.probe", "grid_infimum", "probe.grid_infimum", None),
    ("fconc.probe", "limit_curve_min", "probe.limit_curve_min", None),
    ("fconc.special", "reg_inc_beta", "special.reg_inc_beta", _beta_attrs),
    ("fconc.special", "reg_lower_gamma", "special.reg_lower_gamma", _gamma_attrs),
    ("fconc.special", "ln_beta", "special.ln_beta", None),
    ("fconc.fdist", "prob_leq_kappa_mean", "fdist.prob_leq_kappa_mean", None),
    ("fconc.verify", "quad_inc_beta", "verify.quad_inc_beta", None),
) + tuple(("fconc.verify", name, f"verify.{name}", None) for name in VERIFY_CHECKS)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one run; every span shares ``run_id``."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent, name, 0.0, attrs=attrs or {})
        self.spans.append(s)
        self._stack.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, attrs_fn=None):
        def wrapper(*args, **kwargs):
            # a forked pool worker inherits the wrapper but not the run
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            attrs = attrs_fn(*args, **kwargs) if attrs_fn else None
            with self.span(name, attrs):
                return fn(*args, **kwargs)

        return wrapper

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["id", "parent", "name", "start", "end", "attrs"],
            "spans": [[s.id, s.parent, s.name, s.start, s.end, s.attrs] for s in self.spans],
        }


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every name in LAYERS to a span-recording wrapper, then restore."""
    patched = []
    try:
        for home, name, span_name, attrs_fn in LAYERS:
            original = getattr(import_module(home), name)
            wrapper = tracer.wrap(original, span_name, attrs_fn)
            for mod_name in CALLER_MODULES:
                mod = import_module(mod_name)
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    patched.append((mod, name, original))
        yield tracer
    finally:
        for mod, name, original in reversed(patched):
            setattr(mod, name, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def _has_ancestor(span, by_id, name) -> bool:
    parent = span.parent
    while parent is not None:
        if by_id[parent].name == name:
            return True
        parent = by_id[parent].parent
    return False


LAYER_UNITS = {
    "probe.cells_evaluated": "count",
    "probe.grid_infimum.s": "s",
    "probe.grid_infimum.self_s": "s",
    "probe.limit_curve_min.s": "s",
    "probe.infimum.s": "s",
    "special.reg_inc_beta.calls": "count",
    "special.reg_inc_beta.elements": "count",
    "special.reg_inc_beta.s": "s",
    "special.reg_inc_beta.ns_per_element": "ns",
    "special.reg_inc_beta.sym_frac": "ratio",
    "special.reg_lower_gamma.elements": "count",
    "special.reg_lower_gamma.s": "s",
    "special.ln_beta.s": "s",
    "fdist.prob_leq_kappa_mean.calls": "count",
    "fdist.prob_leq_kappa_mean.us_per_call": "us",
    "verify.quad_inc_beta.calls": "count",
    "verify.quad_inc_beta.s": "s",
    **{f"verify.{name}.s": "s" for name in VERIFY_CHECKS},
    "cli.main.s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer figures per traced pass; a layer the pass never reached reads 0."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        layer = agg[s.name]
        layer["s"] += s.duration
        layer["self_s"] += own[s.id]
        layer["calls"] += 1
        for key, value in s.attrs.items():
            layer[key] += value
    beta, prob = agg["special.reg_inc_beta"], agg["fdist.prob_leq_kappa_mean"]
    totals = {
        "probe.cells_evaluated": sum(
            s.attrs["elements"]
            for s in spans
            if s.name == "special.reg_inc_beta" and _has_ancestor(s, by_id, "probe.grid_infimum")
        ),
        "probe.grid_infimum.s": agg["probe.grid_infimum"]["s"],
        "probe.grid_infimum.self_s": agg["probe.grid_infimum"]["self_s"],
        "probe.limit_curve_min.s": agg["probe.limit_curve_min"]["s"],
        "probe.infimum.s": agg["probe.infimum"]["s"],
        "special.reg_inc_beta.calls": beta["calls"],
        "special.reg_inc_beta.elements": beta["elements"],
        "special.reg_inc_beta.s": beta["s"],
        "special.reg_lower_gamma.elements": agg["special.reg_lower_gamma"]["elements"],
        "special.reg_lower_gamma.s": agg["special.reg_lower_gamma"]["s"],
        "special.ln_beta.s": agg["special.ln_beta"]["s"],
        "fdist.prob_leq_kappa_mean.calls": prob["calls"],
        "verify.quad_inc_beta.calls": agg["verify.quad_inc_beta"]["calls"],
        "verify.quad_inc_beta.s": agg["verify.quad_inc_beta"]["s"],
        **{f"verify.{name}.s": agg[f"verify.{name}"]["s"] for name in VERIFY_CHECKS},
        "cli.main.s": agg["cli.main"]["s"],
        "cli.self_s": agg["cli.main"]["self_s"],
    }
    out = {name: value / passes for name, value in totals.items()}
    out["special.reg_inc_beta.ns_per_element"] = (
        beta["s"] / beta["elements"] * 1e9 if beta["elements"] else 0.0
    )
    out["special.reg_inc_beta.sym_frac"] = beta["sym"] / beta["elements"] if beta["elements"] else 0.0
    out["fdist.prob_leq_kappa_mean.us_per_call"] = (
        prob["s"] / prob["calls"] * 1e6 if prob["calls"] else 0.0
    )
    return out


# Fixed 128-row stripes of the grid scan: (tag, kappa, first d1). Near kappa = 1
# the low-d1 stripe is almost all direct-branch CF and the high-d1 stripe all
# symmetry-branch CF; at kappa = 16 the CF is short and ln_beta is a large share.
STRIPES = (
    ("k1.00005.d1_1", 1.00005, 1),
    ("k1.00005.d1_1793", 1.00005, 1793),
    ("k16.d1_1", 16.0, 1),
)
STRIPE_ROWS = 128
STRIPE_FIELDS = {"s": "s", "ln_beta_s": "s", "cf_direct_s": "s", "cf_sym_s": "s", "sym_frac": "ratio"}


def stripe_inputs(kappa: float, d1_lo: int, d2_max: int):
    """(q, a, b) of one stripe, formed as the grid scan forms them."""
    d1 = np.arange(d1_lo, d1_lo + STRIPE_ROWS, dtype=np.int64)
    d2 = np.arange(3, d2_max + 1, dtype=np.int64)
    a = d1[:, None] / 2.0
    b = d2[None, :] / 2.0
    ka = kappa * a
    q = ka / (ka + (b - 1.0))
    a, b = np.broadcast_arrays(a, b)
    return q.ravel(), a.ravel(), b.ravel()


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def replay_stripes(special, d2_max: int, repeats: int) -> dict[str, float]:
    """Median time of each public special-function call on the fixed stripes.

    ``s`` is reg_inc_beta over the whole stripe (the scan's call);
    ``cf_direct_s`` and ``cf_sym_s`` are reg_inc_beta on the cells of each
    branch; ``ln_beta_s`` is ln_beta over the stripe's shapes.
    """
    out = {}
    for tag, kappa, d1_lo in STRIPES:
        q, a, b = stripe_inputs(kappa, d1_lo, d2_max)
        sym = q > (a + 1.0) / (a + b + 2.0)
        direct = ~sym
        samples = {key: [] for key in ("s", "ln_beta_s", "cf_direct_s", "cf_sym_s")}
        for _ in range(repeats):
            samples["ln_beta_s"].append(_timed(special.ln_beta, a, b))
            samples["s"].append(_timed(special.reg_inc_beta, q, a, b))
            samples["cf_direct_s"].append(_timed(special.reg_inc_beta, q[direct], a[direct], b[direct]))
            samples["cf_sym_s"].append(_timed(special.reg_inc_beta, q[sym], a[sym], b[sym]))
        for key, values in samples.items():
            out[f"stripe.{tag}.{key}"] = statistics.median(values)
        out[f"stripe.{tag}.sym_frac"] = float(sym.mean())
    return out


STRIPE_UNITS = {
    f"stripe.{tag}.{key}": unit for tag, _, _ in STRIPES for key, unit in STRIPE_FIELDS.items()
}
