"""Spans around the public calls of each netchoice layer, from outside the program.

:meth:`Tracer.install` replaces public functions of ``netchoice.events``,
``authors``, ``graph``, ``initiations``, ``choices`` and ``estimators`` (and
every ``netchoice`` module that imported them by name) with wrappers that
record a span ``[name, start, end, parent]``. Spans stay in memory until
:meth:`Tracer.dump` writes them out with the layer counts.

Attribution rules:

* ``TemporalGraph.advance_to`` is ``graph.advance_in_sampling`` below
  ``choices.build_choice_sets`` and ``graph.replay`` elsewhere.
* Calls made inside ``choices.synth_generate`` are not recorded; they are
  part of the generator's own time.
* A generator (``largest_wcc_share_series``) records one span per resume,
  so the consumer's work between rows is not charged to it.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

perf_counter = time.perf_counter

SAMPLING = "choices.build_choice_sets"
SYNTH = "choices.synth_generate"

# Counts recorded per process: "last" keeps the latest value (the same input
# seen again), "sum" adds up. Across processes "last" merges by max.
COUNT_RULES = {
    "events.rows_loaded": "last",
    "events.projected_interactions": "last",
    "authors.authors": "last",
    "graph.edges": "last",
    "graph.wcc_rows": "sum",
    "initiations.count": "last",
    "choices.pool_size_total": "sum",
    "choices.pool_size_calls": "sum",
    "choices.instances": "sum",
    "choices.skipped": "sum",
    "estimators.mnl_iterations": "sum",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.counts: dict[str, float] = {}

    # -- recording -----------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.active[name] = self.active.get(name, 0) + 1
        self.spans.append([name, perf_counter(), 0.0, parent])

    def _exit(self, name):
        self.spans[self.stack.pop()][2] = perf_counter()
        self.active[name] -= 1

    def count(self, name, value):
        if COUNT_RULES[name] == "sum":
            self.counts[name] = self.counts.get(name, 0) + value
        else:
            self.counts[name] = value

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active.get(SYNTH):
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def wrap_advance(self, fn):
        tracer = self

        @wraps(fn)
        def advance_to(graph, t):
            if tracer.active.get(SYNTH):
                return fn(graph, t)
            name = "graph.advance_in_sampling" if tracer.active.get(SAMPLING) else "graph.replay"
            tracer._enter(name)
            try:
                return fn(graph, t)
            finally:
                tracer._exit(name)

        return advance_to

    def wrap_generator(self, name, fn, count_name):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name)
                tracer.count(count_name, 1)
                yield item

        return wrapper

    # -- installation --------------------------------------------------------

    @staticmethod
    def _rebind(module, attr, wrapped):
        """Point ``module.attr`` and every netchoice alias of it at ``wrapped``."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("netchoice") and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    def install(self):
        from netchoice import authors, choices, estimators, events, graph, initiations

        def loaded(res, _):
            ev, up, stats = res
            self.count("events.rows_loaded", len(ev) + len(up) + stats["interaction_duplicates_removed"]
                       + stats["update_duplicates_removed"])

        def pool(res, _):
            if self.active.get(SAMPLING):  # not the synthetic generator's calls
                self.count("choices.pool_size_total", len(res))
                self.count("choices.pool_size_calls", 1)

        def sampled(res, _):
            self.count("choices.instances", len(res[0]))
            self.count("choices.skipped", len(res[1]))

        plain = [
            (events, "load_logs", "events.load_logs", loaded),
            (events, "resolve_amp_timestamps", "events.resolve_amp", None),
            (events, "filter_self_interactions", "events.filter_self", None),
            (events, "project_to_author_edges", "events.project",
             lambda res, _: self.count("events.projected_interactions", len(res))),
            (graph, "build", "graph.build", lambda res, _: self.count("graph.edges", res.n_edges)),
            (initiations, "extract_initiations", "initiations.extract",
             lambda res, _: self.count("initiations.count", len(res))),
            (initiations, "classify_initiations", "initiations.classify", None),
            (initiations, "timeline_stats", "initiations.timeline", None),
            (choices, "build_choice_sets", SAMPLING, sampled),
            (choices, "eligible_candidates", "choices.eligible_candidates", pool),
            (choices, "sample_negatives", "choices.sample_negatives", None),
            (choices, "build_features", "choices.build_features", None),
            (choices, "synth_generate", SYNTH, None),
            (estimators, "mnl_fit", "estimators.mnl_fit",
             lambda res, _: self.count("estimators.mnl_iterations", res.iterations)),
            (estimators, "mnl_accuracy", "estimators.mnl_accuracy", None),
        ]
        for module, attr, name, hook in plain:
            self._rebind(module, attr, self.wrap(name, getattr(module, attr), hook))
        self._rebind(graph, "largest_wcc_share_series",
                     self.wrap_generator("graph.wcc_series", graph.largest_wcc_share_series, "graph.wcc_rows"))
        graph.TemporalGraph.advance_to = self.wrap_advance(graph.TemporalGraph.advance_to)
        graph.TemporalGraph.scc_snapshot = self.wrap("graph.scc", graph.TemporalGraph.scc_snapshot)
        authors.AuthorDirectory.__init__ = self.wrap(
            "authors.directory", authors.AuthorDirectory.__init__,
            lambda _, args: self.count("authors.authors", len(args[0].authors())),
        )

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans) -> dict:
    """Seconds per span name, each span's duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def merge_counts(per_process) -> dict:
    """Combine count dicts of several processes by :data:`COUNT_RULES`."""
    out: dict = {}
    for counts in per_process:
        for name, value in counts.items():
            if COUNT_RULES[name] == "sum":
                out[name] = out.get(name, 0) + value
            else:
                out[name] = max(out.get(name, 0), value)
    return out
