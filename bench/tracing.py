"""Per-layer tracing of one pass, by wrapping each layer's functions from
outside the package.  Nothing under ``src/`` knows about it.

A span is recorded at each layer boundary: name, start, end, parent span and
the op it belongs to.  Spans stay in memory and are written out when the pass
ends.  A span's self time is its duration minus the time its child spans
cover, minus the time spent in coefficient arithmetic and in the tracer's own
bookkeeping inside it.  Coefficient operations (``coeff``) are far too many
for one span each; they are counted, and their time is summed onto the
enclosing span instead.

Layers and what is wrapped:

* ``coeff``    -- ParamPoly ``*``, ``+``, ``-`` and negation (counters);
* ``clifford`` -- ``word_mul`` as weyl looks it up (counter), and the
  ``word_matrix`` cache (misses);
* ``weyl``     -- the public product and sum functions and OperatorExpr
  arithmetic (spans), r^2 division (span), every binary product and every
  canonical result (counters);
* ``ops``      -- every public builder (spans) and the builder caches;
* ``verify``   -- ``run_check``, each check's pair builder,
  ``crosscheck_check`` and the two suite runners (spans);
* ``oracle``   -- ``apply`` and ``random_function`` (spans);
* ``expr``     -- ``parse``, ``evaluate`` and ``format_expr`` (spans).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List

from spinlrl import clifford, expr, ops, oracle, verify, weyl
from spinlrl.coeff import ParamPoly
from spinlrl.weyl import OperatorExpr

# span record fields
NAME, START, END, PARENT, OP, OTHER = range(6)

WEYL_FUNCTIONS = (
    "multiply", "combine_products", "commutator", "anticommutator", "linear_combine",
    "normalize", "adjoint", "pauli_project", "reduce_denominator",
)
WEYL_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__pow__", "substitute")
COEFF_METHODS = {
    "__mul__": "coeff.mul", "__rmul__": "coeff.mul",
    "__add__": "coeff.add", "__radd__": "coeff.add", "__sub__": "coeff.add", "__rsub__": "coeff.add", "__neg__": "coeff.add",
}



def lru_caches(module) -> Dict[str, Callable]:
    """Every functools cache a spinlrl module defines, by name."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == module.__name__
    }


def _cache_totals(caches) -> tuple:
    hits = misses = 0
    for fn in caches:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Tracer:
    """Installs the wrappers, records while ``active``, restores on ``uninstall``."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = None
        self.counts: Counter = Counter()
        self.active = False
        self._patches: List[tuple] = []
        self._in_coeff = False
        self._products_seen: set = set()
        self._ops_caches = list(lru_caches(ops).values())
        self._cache_start = None

    # -- op hooks, called by workloads.OpClock ---------------------------

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self._open("op")

    def end_op(self) -> None:
        self._close()
        self.op = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self) -> None:
        self.spans[self.stack.pop()][END] = perf_counter()

    def _not_self(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][OTHER] += seconds

    def _span(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                start = perf_counter()
                after(args, result)
                tracer._not_self(perf_counter() - start)
            return result

        return wrapper

    def _counter(self, fn: Callable, after: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                start = perf_counter()
                after(args, result)
                tracer._not_self(perf_counter() - start)
            return result

        return wrapper

    def _coeff(self, kind: str, fn: Callable) -> Callable:
        tracer = self
        counts = self.counts
        is_mul = kind == "coeff.mul"

        @functools.wraps(fn)
        def wrapper(*args):
            # nested calls (a - b calls a + (-b)) belong to the outer one
            if not tracer.active or tracer._in_coeff:
                return fn(*args)
            tracer._in_coeff = True
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                seconds = perf_counter() - start
                tracer._in_coeff = False
                counts[kind + ".calls"] += 1
                counts[kind + ".s"] += seconds
                if is_mul:
                    other = args[1]
                    counts["coeff.mul.term_pairs"] += len(args[0].items()) * (len(other.items()) if isinstance(other, ParamPoly) else 1)
                tracer._not_self(seconds)

        return wrapper

    # -- counters at layer boundaries ------------------------------------

    def _count_product(self, args, result) -> None:
        self.counts["weyl.factor_products"] += 1
        key = (args[0], args[1])
        if key in self._products_seen:
            self.counts["weyl.product_repeats"] += 1
        else:
            self._products_seen.add(key)

    def _count_r2(self, args, result) -> None:
        self.counts["weyl.r2.divisions"] += 1
        if not result[1]:
            self.counts["weyl.r2.exact"] += 1

    def _count_out_terms(self, args, result) -> None:
        self.counts["weyl.out_terms"] += len(result.terms)

    def _count_word_mul(self, args, result) -> None:
        self.counts["clifford.word_mul.calls"] += 1

    def _count_apply(self, args, result) -> None:
        self.counts["oracle.apply.term_products"] += len(args[0].terms) * len(args[1].terms)

    def _count_pairs(self, args, result) -> None:
        self.counts["verify.pairs"] += len(result)

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for attr, kind in COEFF_METHODS.items():
            self._patch(ParamPoly, attr, self._coeff(kind, getattr(ParamPoly, attr)))
        self._patch(weyl, "word_mul", self._counter(weyl.word_mul, self._count_word_mul))
        for name in WEYL_FUNCTIONS:
            self._patch(weyl, name, self._span(f"weyl.{name}", getattr(weyl, name)))
        for attr in WEYL_METHODS:
            self._patch(OperatorExpr, attr, self._span("weyl.arith", getattr(OperatorExpr, attr)))
        # every binary product, and every canonical result, passes these two
        self._patch(weyl, "_multiply_acc", self._counter(weyl._multiply_acc, self._count_product))
        self._patch(weyl, "_finalize", self._counter(weyl._finalize, self._count_out_terms))
        self._patch(weyl, "divide_xpoly_by_r2", self._span("weyl.r2", weyl.divide_xpoly_by_r2, self._count_r2))
        for name, fn in vars(ops).copy().items():
            if not name.startswith("_") and inspect.isfunction(getattr(fn, "__wrapped__", fn)) and fn.__module__ == ops.__name__:
                self._patch(ops, name, self._span(f"ops.{name}", fn))
        self._patch(verify, "run_check", self._span("verify.check", verify.run_check))
        self._patch(verify, "run_suite", self._span("verify.run_suite", verify.run_suite))
        self._patch(verify, "crosscheck_check", self._span("verify.crosscheck", verify.crosscheck_check))
        self._patch(verify, "crosscheck_suites", self._span("verify.crosscheck_suites", verify.crosscheck_suites))
        # checks hold their pair builders; swap in copies whose builder is wrapped
        registry = tuple(
            dataclasses.replace(c, pairs=self._span("verify.pairs", c.pairs, self._count_pairs)) for c in verify._REGISTRY
        )
        self._patch(verify, "_REGISTRY", registry)
        self._patch(verify, "_BY_ID", {c.id: c for c in registry})
        self._patch(oracle, "apply", self._span("oracle.apply", oracle.apply, self._count_apply))
        self._patch(oracle, "random_function", self._span("oracle.random_function", oracle.random_function))
        self._patch(expr, "parse", self._span("expr.parse", expr.parse))
        self._patch(expr, "evaluate", self._span("expr.eval", expr.evaluate))
        self._patch(expr, "format_expr", self._span("expr.render", expr.format_expr))
        return self

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def start(self) -> None:
        self._cache_start = (_cache_totals(self._ops_caches), clifford.word_matrix.cache_info().misses)
        self.active = True

    def stop(self) -> None:
        self.active = False
        (hits0, misses0), wm0 = self._cache_start
        hits, misses = _cache_totals(self._ops_caches)
        self.counts["ops.cache_hits"] = hits - hits0
        self.counts["ops.cache_misses"] = misses - misses0
        self.counts["clifford.word_matrix.misses"] = clifford.word_matrix.cache_info().misses - wm0

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric of ``metrics.LAYER_METRICS`` but
        ``trace.overhead_ratio``, from spans and counters."""
        spans = self.spans
        children = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                children[rec[PARENT]] += rec[END] - rec[START]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i, rec in enumerate(spans):
            name = rec[NAME]
            duration = rec[END] - rec[START]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - children[i] - rec[OTHER]
            own["layer:" + name.split(".")[0]] += duration - children[i] - rec[OTHER]
        ops_outer = sum(
            rec[END] - rec[START]
            for rec in spans
            if rec[NAME].startswith("ops.") and (rec[PARENT] < 0 or not spans[rec[PARENT]][NAME].startswith("ops."))
        )
        pairs_in_checks = sum(
            rec[END] - rec[START]
            for rec in spans
            if rec[NAME] == "verify.pairs" and rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "verify.check"
        )
        c = self.counts
        coeff_calls = c["coeff.mul.calls"] + c["coeff.add.calls"]
        ops_lookups = c["ops.cache_hits"] + c["ops.cache_misses"]
        out = {
            "coeff.mul.calls": c["coeff.mul.calls"],
            "coeff.mul.s": c["coeff.mul.s"],
            "coeff.mul.term_pairs": c["coeff.mul.term_pairs"],
            "coeff.add.calls": c["coeff.add.calls"],
            "coeff.add.s": c["coeff.add.s"],
            "coeff.us_per_op": 1e6 * (c["coeff.mul.s"] + c["coeff.add.s"]) / coeff_calls if coeff_calls else 0.0,
            "clifford.word_mul.calls": c["clifford.word_mul.calls"],
            "clifford.word_matrix.misses": c["clifford.word_matrix.misses"],
            "weyl.multiply.calls": calls["weyl.multiply"],
            "weyl.multiply.self_s": own["weyl.multiply"],
            "weyl.combine_products.calls": calls["weyl.combine_products"],
            "weyl.combine_products.self_s": own["weyl.combine_products"],
            "weyl.factor_products": c["weyl.factor_products"],
            "weyl.product_repeat_ratio": c["weyl.product_repeats"] / c["weyl.factor_products"] if c["weyl.factor_products"] else 0.0,
            "weyl.r2.divisions": c["weyl.r2.divisions"],
            "weyl.r2.exact_ratio": c["weyl.r2.exact"] / c["weyl.r2.divisions"] if c["weyl.r2.divisions"] else 0.0,
            "weyl.r2.s": total["weyl.r2"],
            "weyl.out_terms": c["weyl.out_terms"],
            "ops.build.s": ops_outer,
            "ops.cache_misses": c["ops.cache_misses"],
            "ops.cache_hit_ratio": c["ops.cache_hits"] / ops_lookups if ops_lookups else 0.0,
            "verify.pairs_s": total["verify.pairs"],
            "verify.reduce_s": total["verify.check"] - pairs_in_checks,
            "verify.pairs": c["verify.pairs"],
            "verify.self_s": own["layer:verify"],
            "oracle.apply.calls": calls["oracle.apply"],
            "oracle.apply.self_s": own["oracle.apply"],
            "oracle.apply.term_products": c["oracle.apply.term_products"],
            "oracle.random_function.s": total["oracle.random_function"],
            "expr.parse.calls": calls["expr.parse"],
            "expr.parse.s": total["expr.parse"],
            "expr.eval.self_s": own["expr.eval"],
            "expr.render.s": total["expr.render"],
        }
        return out

    def write_spans(self, path, meta: dict) -> None:
        """Spans as JSON: [name, start_s, end_s, parent index, op id]."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[r[NAME], round(r[START] - t0, 7), round(r[END] - t0, 7), r[PARENT], r[OP]] for r in self.spans]
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}, fh, separators=(",", ":"))
