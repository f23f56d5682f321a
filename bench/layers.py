"""Per-layer measurements: spans around qlambert's public entry points, and
fixed-size timings of single layers.

The tracer lives entirely in the benchmark.  ``install`` wraps each entry
point named in ENTRY_POINTS with a shim and rebinds every attribute of every
loaded ``qlambert`` module (and class) that refers to the original, so calls
through ``from .x import f`` bindings are seen too.  Spans are kept in
memory; ``per_layer_metrics`` aggregates them when the workload has ended.
A span's self time is its duration minus the time covered by its child
spans; every ``*_s`` metric below is a sum of self times.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import statistics
import sys
import time

from workloads import CATALOG_NAMES

#: span name -> (module, qualified attribute names); gamma0 spans every
#: public function of its module
ENTRY_POINTS = {
    "series.mul": ("qlambert.series", ("QSeries.__mul__",)),
    "series.invert": ("qlambert.series", ("QSeries.invert",)),
    "series.sqrt": ("qlambert.series", ("QSeries.sqrt",)),
    "series.pow": ("qlambert.series", ("QSeries.__pow__",)),
    "constructors.product": (
        "qlambert.constructors",
        (
            "pochhammer",
            "eta",
            "gen_eta",
            "EtaQuotient.series",
            "GenEtaQuotient.series",
            "pi_q",
            "theta_f",
        ),
    ),
    "constructors.lambert": (
        "qlambert.constructors",
        ("lambert_mod", "lambert_L", "lambert_L_odd", "bailey_specialization"),
    ),
    "constructors.symbol": ("qlambert.constructors", ("gosper_symbols",)),
    "dsl.parse": ("qlambert.dsl", ("parse", "parse_identity")),
    "dsl.evaluate": ("qlambert.dsl", ("evaluate",)),
    "catalog.verify": ("qlambert.catalog", ("verify",)),
    "relations.resultant": ("qlambert.relations", ("resultant_eliminate",)),
    "relations.exact_divide": ("qlambert.relations", ("exact_divide",)),
    "relations.find_relation": ("qlambert.relations", ("find_relation",)),
    "level14.eliminate": ("qlambert.level14", ("eliminate",)),
    "gamma0": ("qlambert.gamma0", None),
    "numeric.report": ("qlambert.numeric", ("numeric_report",)),
}

#: every per-layer metric with its unit, in report order
PER_LAYER = (
    ("series.mul_s", "s"),
    ("series.mul_calls", "count"),
    ("series.mul_coeff_ops", "count"),
    ("series.invert_s", "s"),
    ("series.invert_calls", "count"),
    ("series.sqrt_s", "s"),
    ("series.pow_s", "s"),
    ("series.coeff_max_bits", "bits"),
    ("series.mul_n60_ms", "ms"),
    ("series.mul_n250_ms", "ms"),
    ("series.mul_n1000_ms", "ms"),
    ("series.invert_n250_ms", "ms"),
    ("series.sqrt_n250_ms", "ms"),
    ("constructors.product_s", "s"),
    ("constructors.product_calls", "count"),
    ("constructors.lambert_s", "s"),
    ("constructors.symbol_s", "s"),
    ("constructors.symbol_calls", "count"),
    ("constructors.symbol_repeat_calls", "count"),
    ("constructors.eta_n1000_ms", "ms"),
    ("constructors.symbol_t_w50_ms", "ms"),
    ("constructors.symbol_t_w200_ms", "ms"),
    ("dsl.parse_s", "s"),
    ("dsl.evaluate_self_s", "s"),
    ("dsl.evaluate_calls", "count"),
    ("dsl.tree_nodes", "count"),
    ("dsl.distinct_subtrees", "count"),
    ("dsl.elimK_eval_ms", "ms"),
    ("catalog.verify_s", "s"),
    ("catalog.passes", "count"),
    ("catalog.extra_passes", "count"),
    *((f"catalog.{name}_ms", "ms") for name in CATALOG_NAMES),
    ("relations.resultant_s", "s"),
    ("relations.exact_divide_s", "s"),
    ("relations.find_relation_s", "s"),
    ("relations.find_relation_calls", "count"),
    ("level14.eliminate_s", "s"),
    ("gamma0.s", "s"),
    ("numeric.report_s", "s"),
    ("trace.overhead_s", "s"),
)


# -- spans -------------------------------------------------------------------


def _mul_ops(args):
    a, b = args[0], args[1]
    return len(a.coeffs) * len(getattr(b, "coeffs", (1,)))


def _mul_bits(ops, result):
    bits = 0
    for c in getattr(result, "coeffs", ()):
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return ops, bits


def _record_name(args):
    record = args[0]
    return record if isinstance(record, str) else record.name


#: span name -> (hook before the call on its arguments, hook after it on
#: (before's value, result)); the value kept is the span's info
_HOOKS = {
    "series.mul": (_mul_ops, _mul_bits),
    "constructors.symbol": (lambda args: (args[0], int(args[1])), None),
    "dsl.evaluate": (lambda args: args[0], None),
    "catalog.verify": (_record_name, None),
}


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, parent index, start, end, child time, info]``;
    spans are appended when they open, so list order is start order.
    """

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def call(self, name, fn, args, kwargs):
        before, after = _HOOKS.get(name, (None, None))
        info = before(args) if before else None
        parent = self._open[-1] if self._open else -1
        span = [name, parent, 0.0, 0.0, 0.0, info]
        self._open.append(len(self.spans))
        self.spans.append(span)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            span[2], span[3] = start, end
            if parent >= 0:
                self.spans[parent][4] += end - start
        if after:
            span[5] = after(info, result)
        return result

    def dump(self, path) -> None:
        """Write the spans as JSON lines (id, parent, name, start, end)."""
        with open(path, "w") as out:
            for index, (name, parent, start, end, _, _) in enumerate(self.spans):
                row = {"id": index, "parent": parent, "name": name, "start": start, "end": end}
                out.write(json.dumps(row) + "\n")


def _shim(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def _entry_points(module_name, qualnames):
    module = sys.modules[module_name]
    if qualnames is None:
        return [
            value
            for attr, value in vars(module).items()
            if not attr.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module_name
        ]
    found = []
    for qualname in qualnames:
        owner, _, attr = qualname.rpartition(".")
        holder = getattr(module, owner) if owner else module
        found.append(vars(holder)[attr])
    return found


def install(tracer: Tracer) -> None:
    """Wrap every entry point and rebind every attribute that refers to one."""
    shims = {}
    for name, (module_name, qualnames) in ENTRY_POINTS.items():
        for fn in _entry_points(module_name, qualnames):
            shims[id(fn)] = (fn, _shim(tracer, name, fn))
    holders = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "qlambert" and not module_name.startswith("qlambert."):
            continue
        holders.append(module)
        holders.extend(
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module_name
        )
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            hit = shims.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(holder, attr, hit[1])


def _tree_stats(node) -> tuple:
    """(node count, distinct subtree count) of one DSL tree."""
    count, seen, stack = 0, set(), [node]
    while stack:
        item = stack.pop()
        count += 1
        seen.add(item)
        for field in dataclasses.fields(item):
            value = getattr(item, field.name)
            children = value if isinstance(value, tuple) else (value,)
            stack.extend(c for c in children if dataclasses.is_dataclass(c))
    return count, len(seen)


def per_layer_metrics(tracer: Tracer) -> dict:
    """Aggregate the recorded spans into the span-derived per-layer metrics."""
    spans = tracer.spans
    self_s, calls = {}, {}
    for name, _, start, end, child, _ in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start - child)
        calls[name] = calls.get(name, 0) + 1
    ops = bits = nodes = distinct = 0
    symbol_keys, repeats = set(), 0
    identity_ms = {name: 0.0 for name in CATALOG_NAMES}
    evaluations = {}
    for name, parent, start, end, _, info in spans:
        if name == "series.mul" and isinstance(info, tuple):
            ops += info[0]
            bits = max(bits, info[1])
        elif name == "constructors.symbol":
            repeats += info in symbol_keys
            symbol_keys.add(info)
        elif name == "dsl.evaluate":
            count, unique = _tree_stats(info)
            nodes += count
            distinct += unique
            evaluations[parent] = evaluations.get(parent, 0) + 1
    passes = extra = 0
    for index, (name, _, start, end, _, info) in enumerate(spans):
        if name != "catalog.verify":
            continue
        done = evaluations.get(index, 0) // 2
        passes += done
        extra += max(0, done - 1)
        if info in identity_ms:
            identity_ms[info] += (end - start) * 1000.0
    metrics = {
        "series.mul_s": self_s.get("series.mul", 0.0),
        "series.mul_calls": calls.get("series.mul", 0),
        "series.mul_coeff_ops": ops,
        "series.invert_s": self_s.get("series.invert", 0.0),
        "series.invert_calls": calls.get("series.invert", 0),
        "series.sqrt_s": self_s.get("series.sqrt", 0.0),
        "series.pow_s": self_s.get("series.pow", 0.0),
        "series.coeff_max_bits": bits,
        "constructors.product_s": self_s.get("constructors.product", 0.0),
        "constructors.product_calls": calls.get("constructors.product", 0),
        "constructors.lambert_s": self_s.get("constructors.lambert", 0.0),
        "constructors.symbol_s": self_s.get("constructors.symbol", 0.0),
        "constructors.symbol_calls": calls.get("constructors.symbol", 0),
        "constructors.symbol_repeat_calls": repeats,
        "dsl.parse_s": self_s.get("dsl.parse", 0.0),
        "dsl.evaluate_self_s": self_s.get("dsl.evaluate", 0.0),
        "dsl.evaluate_calls": calls.get("dsl.evaluate", 0),
        "dsl.tree_nodes": nodes,
        "dsl.distinct_subtrees": distinct,
        "catalog.verify_s": self_s.get("catalog.verify", 0.0),
        "catalog.passes": passes,
        "catalog.extra_passes": extra,
        "relations.resultant_s": self_s.get("relations.resultant", 0.0),
        "relations.exact_divide_s": self_s.get("relations.exact_divide", 0.0),
        "relations.find_relation_s": self_s.get("relations.find_relation", 0.0),
        "relations.find_relation_calls": calls.get("relations.find_relation", 0),
        "level14.eliminate_s": self_s.get("level14.eliminate", 0.0),
        "gamma0.s": self_s.get("gamma0", 0.0),
        "numeric.report_s": self_s.get("numeric.report", 0.0),
    }
    metrics.update((f"catalog.{name}_ms", ms) for name, ms in identity_ms.items())
    return metrics


# -- fixed-size timings ------------------------------------------------------


def timed(func, *args, repeats: int = 1) -> float:
    """Median wall time of ``func(*args)`` in milliseconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def _eta_unit(rng, terms: int):
    """Seeded eta-quotient unit part (q^a; q^a) (q^b; q^b) / (q; q) with
    `terms` known, nearly all nonzero, coefficients; built from a dense
    inverse and sparse factors, so building it is cheap."""
    from qlambert.constructors import pochhammer

    series = pochhammer(1, 1, 1, terms).invert()
    for _ in range(2):
        d = rng.randint(2, 6)
        series = series * pochhammer(1, d, d, terms)
    return series


def fixed_size_timings(seed: int) -> dict:
    """Median timings of single layers on seeded inputs of fixed size.

    Symbol builds run first, so they start from a cold symbol cache.
    """
    from qlambert import catalog, dsl
    from qlambert.constructors import eta, gosper_symbols

    out = {
        "constructors.symbol_t_w50_ms": timed(gosper_symbols, "t", 50),
        "constructors.symbol_t_w200_ms": timed(gosper_symbols, "t", 200),
        "constructors.eta_n1000_ms": timed(eta, 1, 1000, repeats=5),
    }
    rng = random.Random(seed)
    for terms, repeats in ((60, 15), (250, 5), (1000, 1)):
        a, b = _eta_unit(rng, terms), _eta_unit(rng, terms)
        out[f"series.mul_n{terms}_ms"] = timed(a.__mul__, b, repeats=repeats)
    unit = _eta_unit(rng, 250)
    out["series.invert_n250_ms"] = timed(unit.invert, repeats=5)
    out["series.sqrt_n250_ms"] = timed(unit.sqrt, repeats=3)

    record = catalog.get_identity("elim-K")
    window = record.truncation + 16  # the first verify pass

    def evaluate_both():
        dsl.evaluate(record.left, window)
        dsl.evaluate(record.right, window)

    evaluate_both()  # builds and caches the symbols
    out["dsl.elimK_eval_ms"] = timed(evaluate_both, repeats=3)
    return out
