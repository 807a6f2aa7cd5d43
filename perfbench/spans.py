"""Tracing of synsim from outside: spans and counters around its functions.

``Tracer.install`` replaces public functions of synsim's modules with
wrappers, in every synsim module namespace that holds them, so calls made
through ``from .x import y`` bindings are caught too. Entry points of each
layer get a span; the hot inner calls (``idf``, ``document_frequency``,
``resolve_count``) only bump counters, which keeps the overhead low.
Spans are kept in memory and written out once, by ``dump``.

``summarize`` turns one traced process's dump into per-layer metrics: self
time per layer (span time minus the time of child spans), call counts of
every wrapped name, and the useful-work ratios.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (module, function, layer metric that receives the span's self time).
SPANNED = (
    ("lexicons", "load_stopwords", "lexicons.load_s"),
    ("lexicons", "load_stem_lexicon", "lexicons.load_s"),
    ("lexicons", "load_synonym_table", "lexicons.load_s"),
    ("evaluation", "read_documents", "evaluation.read_s"),
    ("evaluation", "load_corpus", "evaluation.read_s"),
    ("pipeline", "preprocess", "pipeline.preprocess_s"),
    ("weighting", "Corpus", "weighting.corpus_build_s"),
    ("weighting", "vectorize", "weighting.vectorize_s"),
    ("similarity", "similarity", "similarity.measure_s"),
    ("evaluation", "anchor_matrix", "evaluation.compare_s"),
    ("evaluation", "compare_pair", "evaluation.compare_s"),
    ("evaluation", "delta_summary", "evaluation.compare_s"),
    ("evaluation", "render_report", "evaluation.render_s"),
)
COUNTED = (
    ("weighting", "idf"),
    ("weighting", "document_frequency"),
    ("weighting", "resolve_count"),
)
# Call-count metric names that differ from "<module>.<function>.calls".
CALLS_METRIC = {
    "weighting.resolve_count": "weighting.resolve.calls",
    "similarity.similarity": "similarity.calls",
    "weighting.Corpus": "weighting.corpus_build.calls",
}
LAYER_TIMES = tuple(dict.fromkeys(layer for _, _, layer in SPANNED))
WRAPPED = tuple(f"{m}.{f}" for m, f, *_ in SPANNED + COUNTED)
MODULES = ("", ".cli", ".evaluation", ".lexicons", ".pipeline", ".similarity", ".weighting")


def calls_metric(qualified: str) -> str:
    return CALLS_METRIC.get(qualified, qualified + ".calls")


def metric_names() -> list[str]:
    """Every per-layer metric ``summarize`` reports, in a fixed order."""
    return [
        *LAYER_TIMES,
        "cli.self_s",
        "trace.overhead_s",
        "pipeline.tokens",
        "weighting.idf.useful_ratio",
        "weighting.resolve.hit_ratio",
        *(calls_metric(q) for q in WRAPPED),
    ]


class Tracer:
    """Spans and counters of one process, held in memory."""

    def __init__(self):
        # Each span is [qualified name, parent index or -1, request, start, end].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0
        self.calls: Counter[str] = Counter()
        self.idf_keys: set[tuple[str, str]] = set()
        self.resolve_zero = 0
        self.resolve_hits = 0
        self.tokens = 0

    def _spanned(self, qualified, function, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([qualified, stack[-1] if stack else -1, self.request, clock(), 0])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][4] = clock()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted_idf(self, function):
        calls, keys = self.calls, self.idf_keys

        def idf(corpus, term, mode="traditional", *args, **kwargs):
            calls["weighting.idf"] += 1
            keys.add((term, mode))
            return function(corpus, term, mode, *args, **kwargs)

        return idf

    def _counted(self, qualified, function):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[qualified] += 1
            return function(*args, **kwargs)

        return wrapper

    def _counted_resolve(self, function):
        calls = self.calls

        def resolve_count(*args, **kwargs):
            calls["weighting.resolve_count"] += 1
            result = function(*args, **kwargs)
            if result.matched_term is not None:
                self.resolve_hits += 1
                self.resolve_zero += 1
            elif result.count == 0:
                self.resolve_zero += 1
            return result

        return resolve_count

    def _add_tokens(self, doc):
        self.tokens += doc.total_tokens

    def install(self, package: str = "synsim") -> None:
        """Wrap the traced functions of an imported synsim package."""
        modules = [importlib.import_module(package + m) for m in MODULES]
        replacements = {}
        for module_name, name, _ in SPANNED:
            qualified = f"{module_name}.{name}"
            original = getattr(sys.modules[f"{package}.{module_name}"], name)
            if isinstance(original, type):
                # Classes keep their identity; only construction is timed.
                original.__init__ = self._spanned(qualified, original.__init__)
                continue
            after = self._add_tokens if name == "preprocess" else None
            replacements[id(original)] = (original, self._spanned(qualified, original, after))
        for module_name, name in COUNTED:
            qualified = f"{module_name}.{name}"
            original = getattr(sys.modules[f"{package}.{module_name}"], name)
            if name == "idf":
                wrapper = self._counted_idf(original)
            elif name == "resolve_count":
                wrapper = self._counted_resolve(original)
            else:
                wrapper = self._counted(qualified, original)
            replacements[id(original)] = (original, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path) -> None:
        """Write spans and counters as JSON."""
        data = {
            "spans": self.spans,
            "calls": dict(self.calls),
            "idf_distinct": len(self.idf_keys),
            "resolve_zero": self.resolve_zero,
            "resolve_hits": self.resolve_hits,
            "tokens": self.tokens,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


def summarize(data: dict, wall_s: float, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced process that ran for ``wall_s``.

    ``cli.self_s`` is the process wall time minus all top-level spans, so
    the layer self times plus ``cli.self_s`` add up to ``wall_s``. Every
    time is multiplied by ``scale``. ``trace.overhead_s`` needs an
    untraced run and is filled in by the caller.
    """
    layer_of = {f"{m}.{f}": layer for m, f, layer in SPANNED}
    spans = data["spans"]
    self_ns = [end - start for _, _, _, start, end in spans]
    calls = Counter(data["calls"])
    top_level_ns = 0
    for name, parent, _, start, end in spans:
        calls[name] += 1
        if parent >= 0:
            self_ns[parent] -= end - start
        else:
            top_level_ns += end - start
    metrics = dict.fromkeys(metric_names(), 0.0)
    for (name, *_), ns in zip(spans, self_ns):
        metrics[layer_of[name]] += ns / 1e9 * scale
    metrics["cli.self_s"] = (wall_s - top_level_ns / 1e9) * scale
    metrics["pipeline.tokens"] = data["tokens"]
    idf_calls = calls["weighting.idf"]
    metrics["weighting.idf.useful_ratio"] = (
        data["idf_distinct"] / idf_calls if idf_calls else 0.0
    )
    metrics["weighting.resolve.hit_ratio"] = (
        data["resolve_hits"] / data["resolve_zero"] if data["resolve_zero"] else 0.0
    )
    for qualified in WRAPPED:
        metrics[calls_metric(qualified)] = calls[qualified]
    return metrics
