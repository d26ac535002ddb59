"""Spans and counters recorded around calls into the gjones layers.

Nothing in gjones is edited: ``install`` replaces functions and class
methods with wrappers before the work starts.  A function imported into
other modules with ``from .x import f`` is replaced in every gjones module
that holds it, so calls through any of those names are seen.

Each wrapped call is one span (name, start, end, parent span, operation id),
kept in compact arrays and written out when the traced process ends.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")     # 1 when no enclosing span has the same name
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.coeff_sum_keys: set = set()
        self.active = False

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.outer.append(self._depth[nid] == 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call is a span; ``before`` may rewrite the
        arguments, ``after`` sees the arguments and the result."""
        nid = self._nid(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(self, args)
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx, nid)
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self) -> int:
        """Open the span of the next operation; spans inside it carry its id."""
        self.op_id += 1
        return self._enter(self._nid("op"))

    def end_op(self, idx: int) -> None:
        self._exit(idx, self._nid("op"))

    # -- aggregation ----------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive time of outermost spans, self time."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if self.outer[i]:
                rec["incl_s"] += dur
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n")


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

MODULES = ("exactalg", "qcombo", "cyclo", "daha", "macdonald", "knots", "verify", "cli")


def _count_mul(tr, args, result):
    if result is NotImplemented:
        return
    self, other = args
    tr.counts["mul_calls"] += 1
    tr.counts["mul_term_products"] += len(self) * (len(other) if hasattr(other, "__len__") else 1)


def _count_divide(tr, args, result):
    tr.counts["divide_brace_calls"] += 1
    tr.counts["divide_brace_exact"] += result is not None


def _qfrac_sum_args(tr, args):
    terms = [t for t in args[0]]
    tr.counts["qfrac_sum_calls"] += 1
    nonzero = [t for t in terms if not t.is_zero]
    if len(nonzero) > 1:
        lcm: Counter = Counter()
        for t in nonzero:
            lcm |= Counter(t.den)
        # {m} = q^m - q^-m spans q-degree 2m
        tr.counts["qfrac_sum_lcm_qdeg"] += sum(2 * m * k for m, k in lcm.items())
    return (terms,) + tuple(args[1:])


def _count_coeff_sum(tr, args, result):
    tr.counts["coeff_sum_calls"] += 1
    tr.coeff_sum_keys.add((args[0], args[1]))


def _count_dunkl(tr, args, result):
    tr.counts["dunkl_y_calls"] += 1


def _count_output(tr, args, result):
    tr.counts["output_terms"] += len(result)


def _replace_everywhere(mods: dict, original, wrapper) -> None:
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tr: Tracer) -> dict:
    """Wrap the gjones layers; returns the lru-cached originals whose
    ``cache_info`` gives hit and build counts."""
    import importlib

    mods = {name: importlib.import_module(f"gjones.{name}") for name in MODULES}
    mods["gjones"] = sys.modules["gjones"]
    ea = mods["exactalg"]

    functions = [
        ("exactalg.divide_brace", ea.divide_brace, None, _count_divide),
        ("exactalg.qfrac_sum", ea.qfrac_sum, _qfrac_sum_args, None),
        ("qcombo.cyclotomic_c", mods["qcombo"].cyclotomic_c, None, None),
        ("cyclo.a_table", mods["cyclo"].a_table, None, None),
        ("cyclo.coeff_sum", mods["cyclo"].coeff_sum, None, _count_coeff_sum),
        ("cyclo.coeff_series", mods["cyclo"].coeff_series, None, None),
        ("cyclo.coeff_det_series", mods["cyclo"].coeff_det_series, None, None),
        ("cyclo.coeff_t2one", mods["cyclo"].coeff_t2one, None, None),
        ("daha.transition_row", mods["daha"].transition_row, None, None),
        ("daha.dunkl_y", mods["daha"].dunkl_y, None, _count_dunkl),
        ("macdonald.mac_p", mods["macdonald"].mac_p, None, None),
        ("macdonald.rogers_c", mods["macdonald"].rogers_c, None, None),
        ("knots.generalized_jones", mods["knots"].generalized_jones, None, _count_output),
        ("knots.universal_eval", mods["knots"].universal_eval, None, _count_output),
    ]
    caches = {"cyclotomic_c": mods["qcombo"].cyclotomic_c, "a_table": mods["cyclo"].a_table}
    for name, fn, before, after in functions:
        _replace_everywhere(mods, fn, tr.span(name, fn, before, after))

    methods = [
        ("exactalg.mul", ea.LaurentPoly, ("__mul__", "__rmul__"), _count_mul),
        ("exactalg.series", ea.TruncatedSeries,
         ("__add__", "__sub__", "__neg__", "__mul__", "scale", "shift", "invert"), None),
        ("cli.render", ea.LaurentPoly, ("render", "json_terms"), None),
        ("cli.render", ea.QFraction, ("render",), None),
    ]
    for name, cls, attrs, after in methods:
        for attr in attrs:
            setattr(cls, attr, tr.span(name, vars(cls)[attr], None, after))
    return caches


def cache_counts(caches: dict) -> Counter:
    out: Counter = Counter()
    for name, fn in caches.items():
        info = fn.cache_info()
        out[f"{name}_hits"] = info.hits
        out[f"{name}_misses"] = info.misses
    return out


def aggregate(tr: Tracer, caches: dict, before: Counter) -> dict:
    """Raw sums for one traced process; ``layer_metrics`` turns sums into metrics."""
    after = cache_counts(caches)
    counts = Counter(tr.counts)
    for key in after:
        counts[key] += after[key] - before[key]
    counts["coeff_sum_distinct"] = len(tr.coeff_sum_keys)
    counts["spans"] = len(tr.span_name)
    return {"counts": dict(counts), "totals": tr.totals()}


def merge(parts: list[dict]) -> dict:
    counts: Counter = Counter()
    totals: dict = {}
    for part in parts:
        counts.update(part["counts"])
        for name, rec in part["totals"].items():
            acc = totals.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
    return {"counts": dict(counts), "totals": totals}


def _ratio(a: int, b: int) -> float:
    return a / b if b else 0.0


def layer_metrics(agg: dict) -> tuple[dict, dict]:
    """(count metrics, time metrics) by per-layer metric name."""
    c = Counter(agg["counts"])
    t = agg["totals"]

    def incl(name):
        return t.get(name, {}).get("incl_s", 0.0)

    def self_s(name):
        return t.get(name, {}).get("self_s", 0.0)

    counts = {
        "exactalg.mul_calls": c["mul_calls"],
        "exactalg.mul_term_products": c["mul_term_products"],
        "exactalg.divide_brace_calls": c["divide_brace_calls"],
        "exactalg.divide_brace_exact_ratio": _ratio(c["divide_brace_exact"], c["divide_brace_calls"]),
        "exactalg.qfrac_sum_calls": c["qfrac_sum_calls"],
        "exactalg.qfrac_sum_lcm_qdeg": c["qfrac_sum_lcm_qdeg"],
        "qcombo.cyclotomic_c_hit_ratio": _ratio(
            c["cyclotomic_c_hits"], c["cyclotomic_c_hits"] + c["cyclotomic_c_misses"]),
        "cyclo.a_table_builds": c["a_table_misses"],
        "cyclo.coeff_sum_calls": c["coeff_sum_calls"],
        "cyclo.coeff_sum_distinct": c["coeff_sum_distinct"],
        "daha.dunkl_y_calls": c["dunkl_y_calls"],
        "knots.output_terms": c["output_terms"],
        "trace.spans": c["spans"],
    }
    times = {
        "exactalg.mul_self_s": self_s("exactalg.mul"),
        "exactalg.divide_brace_s": incl("exactalg.divide_brace"),
        "exactalg.series_s": incl("exactalg.series"),
        "qcombo.cyclotomic_c_s": incl("qcombo.cyclotomic_c"),
        "cyclo.a_table_s": incl("cyclo.a_table"),
        "cyclo.coeff_sum_s": incl("cyclo.coeff_sum"),
        "cyclo.coeff_series_s": incl("cyclo.coeff_series"),
        "cyclo.coeff_det_series_s": incl("cyclo.coeff_det_series"),
        "cyclo.coeff_t2one_s": incl("cyclo.coeff_t2one"),
        "daha.transition_row_s": incl("daha.transition_row"),
        "macdonald.mac_p_s": incl("macdonald.mac_p"),
        "macdonald.rogers_c_s": incl("macdonald.rogers_c"),
        "knots.generalized_jones_self_s": self_s("knots.generalized_jones"),
        "knots.universal_eval_self_s": self_s("knots.universal_eval"),
        "cli.render_s": incl("cli.render"),
    }
    return counts, times
