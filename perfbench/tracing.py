"""Span tracing of the package's layers, installed from outside the package.

`Tracer.install` replaces each layer's public functions and methods (and the
two private hot helpers ``univariate._profile_tail_series`` and
``cli._emit``) by wrappers, patching module and class attributes.  Every
call records one span: name, start, end, parent span and operation id.
Spans stay in memory (compact arrays) and are written by `Tracer.save` when
the run ends.  Counts are taken by the same wrappers.  A layer's self time
is its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: Module of each layer, in the package ``multigauss``.
LAYER_MODULES = ("series", "univariate", "logmg", "multivariate", "oracle", "verify", "cli")

#: Classes whose public methods (and constructor) are wrapped, by layer.
LAYER_CLASSES = {
    "univariate": ("MultiGauss",),
    "logmg": ("LogMultiGauss",),
    "multivariate": ("MvMultiGauss",),
}

#: Public functions wrapped per layer module, beyond the classes above.
LAYER_FUNCTIONS = {
    "series": ("series_s", "xi_coeff", "series_tail", "signed_coeffs", "binom_coeff"),
    "univariate": ("mg_profile", "_profile_tail_series"),
    "multivariate": ("bivariate_pdf",),
    "oracle": ("integrate", "integrate_cos_weighted", "integrate_2d_graded", "ks_statistic",
               "finite_diff", "gaussian_pdf", "gaussian_cdf"),
    "verify": ("run_suite", "series_reports", "univariate_reports", "lmg_reports",
               "mv_reports"),
    "cli": ("main", "build_parser", "cmd_eval", "cmd_sample", "cmd_figure", "cmd_verify",
            "_emit"),
}

_INTEGRATORS = ("oracle.integrate", "oracle.integrate_cos_weighted", "oracle.integrate_2d_graded")
_GENFN = tuple(f"univariate.MultiGauss.{m}" for m in
               ("mgf", "cf", "raw_moment", "cumulant", "variance"))
_UNI_PDF = ("univariate.MultiGauss.pdf", "univariate.MultiGauss.logpdf")
_MV_PDF = ("multivariate.MvMultiGauss.pdf", "multivariate.bivariate_pdf")
_CLI_CMDS = tuple(f"cli.cmd_{c}" for c in ("eval", "sample", "figure", "verify"))


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._depth: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._clear_spans()

    def _clear_spans(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")

    def _id(self, name: str) -> int:
        self.names.append(name)
        self._depth.append(0)
        return len(self.names) - 1

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, pre=None, post=None):
        nid = self._id(name)
        depth = self._depth
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            stack.append(i)
            depth[nid] += 1
            self.start.append(clock())
            try:
                if pre is not None:
                    args = pre(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
                depth[nid] -= 1
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every loaded layer module of ``multigauss`` in place."""
        mods = {layer: sys.modules.get(f"multigauss.{layer}") for layer in LAYER_MODULES}
        replaced: dict[int, object] = {}
        hooks = self._hooks()
        for layer, mod in mods.items():
            if mod is None:
                continue
            for fname in LAYER_FUNCTIONS.get(layer, ()):
                orig = getattr(mod, fname)
                name = f"{layer}.{fname}"
                replaced[id(orig)] = self.wrap(orig, name, *hooks.get(name, (None, None)))
            for cname in LAYER_CLASSES.get(layer, ()):
                cls = getattr(mod, cname)
                for attr, val in list(vars(cls).items()):
                    if not inspect.isfunction(val) or (attr.startswith("_") and attr != "__init__"):
                        continue
                    name = f"{layer}.{cname}.{attr}"
                    setattr(cls, attr, self.wrap(val, name, *hooks.get(name, (None, None))))
        # a function imported by name into other modules is patched there too
        for mod in [sys.modules.get("multigauss")] + list(mods.values()):
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced:
                    setattr(mod, attr, replaced[id(val)])

    def _hooks(self):
        counts = self.counts
        ids = {}

        def open_(name):
            """How many spans of ``name`` are open (ids are known once installed)."""
            if name not in ids:
                ids[name] = self.names.index(name) if name in self.names else None
            return self._depth[ids[name]] if ids[name] is not None else 0

        def uni_points(args, kwargs):
            counts["univariate.pdf_points"] += np.size(args[1])
            return args

        def mv_points(args, kwargs):
            x = np.asarray(args[1])
            counts["multivariate.pdf_points"] += x.shape[0] if x.ndim == 2 else 1
            return args

        def biv_points(args, kwargs):
            counts["multivariate.pdf_points"] += np.broadcast(np.asarray(args[2]),
                                                              np.asarray(args[3])).size
            return args

        def cdf_pre(args, kwargs):
            if open_("univariate.MultiGauss.sample"):
                counts["univariate.sample_cdf_calls"] += 1
            if open_("univariate.MultiGauss.quantile"):
                counts["univariate.quantile_cdf_calls"] += 1
            return args

        def profile_pre(args, kwargs):
            if open_("multivariate.MvMultiGauss.sample"):
                counts["multivariate.proposals"] += np.size(args[0])
            return args

        def mv_sample_post(args, kwargs, result):
            counts["multivariate.variates"] += len(result)
            shape = args[0].shape
            if shape.is_integer and shape.int_value == 1:
                counts["multivariate.proposals"] += len(result)  # the proposal stream itself

        def series_post(args, kwargs, result):
            counts["series.calls"] += 1
            counts["series.terms"] += result.terms_used

        def integrate_pre(args, kwargs):
            if sum(open_(n) for n in _INTEGRATORS) > 1:
                return args  # nested: the outermost call already counts evaluations
            f = args[0]

            def counted(*a):
                value = f(*a)
                counts["oracle.integrand_evals"] += np.size(value)
                return value

            return (counted,) + tuple(args[1:])

        def emit_pre(args, kwargs):
            counts["cli.emit_rows"] += len(args[0])
            return args

        def emit_post(args, kwargs, result):
            out_path = args[3] if len(args) > 3 else kwargs.get("out_path")
            if out_path:
                counts["cli.emit_bytes"] += os.path.getsize(out_path)

        hooks = {
            "series.series_s": (None, series_post),
            "univariate.MultiGauss.pdf": (uni_points, None),
            "univariate.MultiGauss.logpdf": (uni_points, None),
            "univariate.MultiGauss.cdf": (cdf_pre, None),
            "univariate.mg_profile": (profile_pre, None),
            "multivariate.MvMultiGauss.pdf": (mv_points, None),
            "multivariate.bivariate_pdf": (biv_points, None),
            "multivariate.MvMultiGauss.sample": (None, mv_sample_post),
            "cli._emit": (emit_pre, emit_post),
        }

        for name in _INTEGRATORS:
            hooks[name] = (integrate_pre, None)
        return hooks

    # -- transfer between processes and storage --------------------------------

    def clear(self) -> None:
        """Forget the spans and counts recorded so far."""
        self._clear_spans()
        self.counts.clear()

    def take(self) -> bytes:
        """Serialize and clear the spans and counts recorded so far."""
        blob = pickle.dumps((self.name.tobytes(), self.parent.tobytes(), self.op.tobytes(),
                             self.start.tobytes(), self.end.tobytes(), dict(self.counts)))
        self.clear()
        return blob

    def merge(self, blob: bytes) -> None:
        """Append spans and counts taken in another process (see `take`)."""
        name, parent, op, start, end, counts = pickle.loads(blob)
        offset = len(self.start)
        par = np.frombuffer(parent, dtype=np.int32)
        par = np.where(par >= 0, par + offset, -1).astype(np.int32)
        self.name.frombytes(name)
        self.parent.frombytes(par.tobytes())
        self.op.frombytes(op)
        self.start.frombytes(start)
        self.end.frombytes(end)
        for k, v in counts.items():
            self.counts[k] += v

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), op=np.asarray(self.op),
            start_ns=np.asarray(self.start), end_ns=np.asarray(self.end))

    # -- per-layer metrics --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counts recorded so far."""
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = (np.asarray(self.end) - np.asarray(self.start)).astype(float) * 1e-6  # ms
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ms = dur - child[: len(dur)]
        ids = {n: i for i, n in enumerate(self.names)}
        layer_of = np.array([n.split(".", 1)[0] for n in self.names] + [""])

        def mask(*names):
            return np.isin(name, [ids[n] for n in names if n in ids])

        def calls(*names):
            return int(np.count_nonzero(mask(*names)))

        def total(*names):
            return float(dur[mask(*names)].sum())

        def self_total(*names):
            return float(self_ms[mask(*names)].sum())

        def layer_self(layer):
            return float(self_ms[layer_of[name] == layer].sum())

        def ratio(a, b):
            return float(a) / b if b else 0.0

        genfn = mask(*_GENFN)
        parent_genfn = np.zeros_like(genfn)
        parent_genfn[has_parent] = genfn[parent[has_parent]]
        c = self.counts
        cdf_calls = calls("univariate.MultiGauss.cdf")
        quantile_calls = calls("univariate.MultiGauss.quantile")
        emit_ms = total("cli._emit")
        return {
            "series.calls": int(c["series.calls"]),
            "series.terms": int(c["series.terms"]),
            "series.self_ms": layer_self("series"),
            "univariate.construct_ms": self_total("univariate.MultiGauss.__init__"),
            "multivariate.construct_ms": self_total("multivariate.MvMultiGauss.__init__"),
            "univariate.pdf_points": int(c["univariate.pdf_points"]),
            "univariate.pdf_ns_per_point": ratio(total(*_UNI_PDF) * 1e6,
                                                 c["univariate.pdf_points"]),
            "univariate.tail_points": calls("univariate._profile_tail_series"),
            "multivariate.pdf_points": int(c["multivariate.pdf_points"]),
            "multivariate.pdf_ns_per_point": ratio(total(*_MV_PDF) * 1e6,
                                                   c["multivariate.pdf_points"]),
            "univariate.cdf_calls": cdf_calls,
            "univariate.cdf_us_per_call": ratio(total("univariate.MultiGauss.cdf") * 1e3,
                                                cdf_calls),
            "univariate.sample_calls": calls("univariate.MultiGauss.sample"),
            "univariate.sample_ms": total("univariate.MultiGauss.sample"),
            "univariate.sample_cdf_calls": int(c["univariate.sample_cdf_calls"]),
            "univariate.quantile_calls": quantile_calls,
            "univariate.quantile_ms": total("univariate.MultiGauss.quantile"),
            "univariate.cdf_per_quantile": ratio(c["univariate.quantile_cdf_calls"],
                                                 quantile_calls),
            "univariate.genfn_ms": float(dur[genfn & ~parent_genfn].sum()),
            "logmg.self_ms": layer_self("logmg"),
            "multivariate.sample_ms": total("multivariate.MvMultiGauss.sample"),
            "multivariate.proposals": int(c["multivariate.proposals"]),
            "multivariate.accept_ratio": ratio(c["multivariate.variates"],
                                               c["multivariate.proposals"]),
            "oracle.integrate_calls": calls(*_INTEGRATORS),
            "oracle.integrand_evals": int(c["oracle.integrand_evals"]),
            "oracle.ms": layer_self("oracle"),
            "verify.self_ms": layer_self("verify"),
            "cli.compute_ms": total(*_CLI_CMDS) - emit_ms,
            "cli.emit_rows": int(c["cli.emit_rows"]),
            "cli.emit_bytes": int(c["cli.emit_bytes"]),
            "cli.emit_ms": emit_ms,
        }
