"""Per-layer tracing of qdet, installed from outside the package.

`Tracer.install` wraps the public functions of each layer and records one
span (label, start, end, parent span, op id) per call.  Modules bind one
another's functions by ``from .x import name``, so a wrapper is useful
only if every module that holds the original holds the wrapper instead:
`install` rebinds each name in every loaded ``qdet`` module whose value is
the original object.  ``QMatrix.__matmul__`` gets a span and the
``Quaternion`` operators get counters, all set on the class.

A label's self time is its spans' durations minus the time their direct
child spans cover (calls are nested, never overlapping, in this
single-threaded client).  Inclusive time counts only the outermost span of
a label, so recursion is not counted twice.  Spans stay in memory until
`summary` is read; `uninstall` restores every original, and a later
`install` adds to the same spans and counts.
"""

import functools
import inspect
import math
import sys
from collections import Counter
from time import perf_counter_ns

import qdet
from qdet import QMatrix, Quaternion

# (module, function) -> label; geninv routes get ".<route>" appended.
SPANNED = {
    ("matrix", "mat_pow"): "matrix.mat_pow",
    ("matrix", "rank"): "matrix.rank",
    ("matrix", "index_of"): "matrix.index_of",
    ("matrix", "inverse_square"): "matrix.inverse_square",
    ("ncdet", "rdet"): "ncdet.det",
    ("ncdet", "cdet"): "ncdet.det",
    ("ncdet", "principal_minor_sum"): "ncdet.minor_sum",
    ("geninv", "mp_inverse"): "geninv.mp",
    ("geninv", "drazin"): "geninv.drazin",
    ("geninv", "wdrazin"): "geninv.wdrazin",
    ("geninv", "wdrazin_limit_estimate"): "geninv.limit_estimate",
    ("verify", "check_penrose"): "verify.check",
    ("verify", "check_drazin"): "verify.check",
    ("verify", "check_wdrazin"): "verify.check",
    ("verify", "mp_oracle_embedding"): "verify.oracle",
    ("cli", "parse_qmat"): "cli.parse",
    ("cli", "main"): "cli.main",
}

# "all routes" entry points: counted, so declared-but-inapplicable routes show.
ALL_ROUTES = {
    "mp_all_routes": "MP_ROUTES",
    "drazin_all_routes": "DRAZIN_ROUTES",
    "wdrazin_all_routes": "WDRAZIN_ROUTES",
}

SCALAR_COUNTED = {
    "__mul__": "scalar.mul",
    "__rmul__": "scalar.mul",
    "__add__": "scalar.add",
    "__radd__": "scalar.add",
    "__sub__": "scalar.add",
    "__rsub__": "scalar.add",
}

ROUTES = {
    "mp": ("cdet", "rdet", "all"),
    "drazin": ("cdet", "rdet", "mp_composition", "hermitian_cdet", "hermitian_rdet", "all"),
    "wdrazin": (
        "via_drazin_U",
        "via_drazin_V",
        "mp_route_U",
        "mp_route_V",
        "hermitian_U",
        "hermitian_V",
        "all",
    ),
}


def _names():
    """Every per-layer metric of a traced run, in report order, with units."""
    out = [
        ("scalar.mul_calls", "count"),
        ("scalar.add_calls", "count"),
        ("scalar.mul_ns_exact", "ns"),
        ("scalar.mul_ns_float", "ns"),
        ("scalar.max_coef_bits", "bits"),
    ]
    for f in ("matmul", "mat_pow", "rank", "index_of", "inverse_square"):
        out += [(f"matrix.{f}_calls", "count"), (f"matrix.{f}_s", "s")]
    out += [
        ("ncdet.det_calls", "count"),
        ("ncdet.det_s", "s"),
        ("ncdet.terms", "count"),
        ("ncdet.minor_sum_calls", "count"),
        ("ncdet.minor_sum_s", "s"),
    ]
    for op, routes in ROUTES.items():
        for route in routes:
            out += [(f"geninv.{op}.{route}.calls", "count"), (f"geninv.{op}.{route}.s", "s")]
    out += [
        ("geninv.routes_skipped", "count"),
        ("geninv.limit_estimate_s", "s"),
        ("verify.check_calls", "count"),
        ("verify.check_s", "s"),
        ("verify.check_incl_s", "s"),
        ("verify.failed_checks", "count"),
        ("verify.oracle_s", "s"),
        ("cli.startup_s", "s"),
        ("cli.parse_s", "s"),
        ("cli.main_s", "s"),
        ("cli.exit.0", "count"),
        ("cli.exit.1", "count"),
        ("cli.exit.2", "count"),
        ("cli.exit.3", "count"),
        ("cli.tracebacks", "count"),
        ("probe.failed", "count"),
        ("trace.spans", "count"),
        ("trace.untraced_ops_per_s", "1/s"),
        ("trace.ops_per_s", "1/s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


PER_LAYER = _names()


def _qdet_modules():
    return [m for name, m in sys.modules.items() if name == "qdet" or name.startswith("qdet.")]


class Tracer:
    def __init__(self):
        self.spans = []  # [label, start_ns, end_ns, parent index, op id, outermost]
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._open = Counter()
        self._depth = [0]
        self._undo = []
        self._originals = []

    # -- wrappers -------------------------------------------------------

    def _span(self, orig, label_of, after=None):
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = label_of(args, kwargs)
            rec = [label, 0, 0, stack[-1] if stack else -1, self.op, open_[label] == 0]
            stack.append(len(spans))
            spans.append(rec)
            open_[label] += 1
            rec[1] = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
                open_[label] -= 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _scalar(self, orig, key):
        # Only the outermost operator call counts: __sub__ may be built on
        # __add__, __rmul__ on __mul__, and each should count once.
        counts, depth = self.counts, self._depth

        def wrapper(a, b):
            if depth[0]:
                return orig(a, b)
            depth[0] = 1
            counts[key] += 1
            try:
                return orig(a, b)
            finally:
                depth[0] = 0

        return wrapper

    def _labeller(self, modname, fname, orig):
        label = SPANNED[(modname, fname)]
        sig = inspect.signature(orig)
        if modname == "geninv" and "route" in sig.parameters:

            def route_label(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return f"{label}.{bound.arguments['route']}"

            return route_label
        if label == "ncdet.det":
            counts = self.counts

            def det_label(args, kwargs):
                a = sig.bind(*args, **kwargs).arguments["a"]
                counts["ncdet.terms"] += math.factorial(a.rows)
                return label

            return det_label
        return lambda args, kwargs: label

    def _after(self, label):
        if label == "verify.check":
            counts = self.counts

            def count_failed(report):
                counts["verify.failed_checks"] += sum(1 for c in report.checks if not c.passed)

            return count_failed
        return None

    def _skipped_counter(self, declared_attr):
        counts = self.counts

        def count_skipped(result):
            declared = getattr(qdet.geninv, declared_attr)
            counts["geninv.routes_skipped"] += len(declared) - len(result)

        return count_skipped

    # -- install / uninstall --------------------------------------------

    def _rebind(self, modules, orig, wrapper):
        self._originals.append(orig)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _set_method(self, cls, name, wrapper):
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def install(self):
        modules = _qdet_modules()
        for (modname, fname), label in SPANNED.items():
            orig = getattr(getattr(qdet, modname), fname)
            wrapper = self._span(orig, self._labeller(modname, fname, orig), self._after(label))
            self._rebind(modules, orig, wrapper)
        for fname, declared in ALL_ROUTES.items():
            orig = getattr(qdet.geninv, fname)
            wrapper = self._span(orig, lambda args, kwargs: "geninv.all_routes", self._skipped_counter(declared))
            self._rebind(modules, orig, wrapper)
        matmul = QMatrix.__dict__["__matmul__"]
        self._set_method(QMatrix, "__matmul__", self._span(matmul, lambda args, kwargs: "matrix.matmul"))
        for name, key in SCALAR_COUNTED.items():
            self._set_method(Quaternion, name, self._scalar(Quaternion.__dict__[name], key))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def unhooked(self):
        """(module, name) pairs that still hold an original after install."""
        ids = {id(o) for o in self._originals}
        return [
            (module.__name__, attr)
            for module in _qdet_modules()
            for attr, value in vars(module).items()
            if id(value) in ids
        ]

    # -- results --------------------------------------------------------

    def times(self):
        """Per label: (calls, self seconds, inclusive seconds)."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls, own, incl = Counter(), Counter(), Counter()
        for i, s in enumerate(spans):
            calls[s[0]] += 1
            own[s[0]] += dur[i] - child[i]
            if s[5]:
                incl[s[0]] += dur[i]
        return {k: (calls[k], own[k] / 1e9, incl[k] / 1e9) for k in calls}

    def summary(self):
        """The span- and counter-based per-layer metrics."""
        t = self.times()

        def calls(label):
            return t.get(label, (0, 0.0, 0.0))[0]

        def own(label):
            return t.get(label, (0, 0.0, 0.0))[1]

        def incl(label):
            return t.get(label, (0, 0.0, 0.0))[2]

        out = {
            "scalar.mul_calls": self.counts["scalar.mul"],
            "scalar.add_calls": self.counts["scalar.add"],
        }
        for f in ("matmul", "mat_pow", "rank", "index_of", "inverse_square"):
            out[f"matrix.{f}_calls"] = calls(f"matrix.{f}")
            out[f"matrix.{f}_s"] = own(f"matrix.{f}")
        out["ncdet.det_calls"] = calls("ncdet.det")
        out["ncdet.det_s"] = own("ncdet.det")
        out["ncdet.terms"] = self.counts["ncdet.terms"]
        out["ncdet.minor_sum_calls"] = calls("ncdet.minor_sum")
        out["ncdet.minor_sum_s"] = own("ncdet.minor_sum")
        for op, routes in ROUTES.items():
            for route in routes:
                out[f"geninv.{op}.{route}.calls"] = calls(f"geninv.{op}.{route}")
                out[f"geninv.{op}.{route}.s"] = own(f"geninv.{op}.{route}")
        out["geninv.routes_skipped"] = self.counts["geninv.routes_skipped"]
        out["geninv.limit_estimate_s"] = incl("geninv.limit_estimate")
        out["verify.check_calls"] = calls("verify.check")
        out["verify.check_s"] = own("verify.check")
        out["verify.check_incl_s"] = incl("verify.check")
        out["verify.failed_checks"] = self.counts["verify.failed_checks"]
        out["verify.oracle_s"] = incl("verify.oracle")
        out["cli.parse_s"] = incl("cli.parse")
        out["cli.main_s"] = incl("cli.main")
        out["trace.spans"] = len(self.spans)
        return out
