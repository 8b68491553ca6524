"""Spans around calls into the package's layers, recorded from outside.

``pipeline.py`` imports layer functions by name, so the hooks replace those
names in ``wikicomm.pipeline``'s namespace (and ``f_cdf``/``t_cdf`` in
``wikicomm.stats``, and methods of the client classes). A hooked name the
package no longer has is listed as absent and its layer reads zero; it never
fails the run. Spans stay in memory and are summarised when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span kind). Kinds are "<layer>.<what>".
STAGE_HOOK = ("wikicomm.pipeline", "STAGES")
LAYER_HOOKS = [
    ("wikicomm.pipeline", "parse_talk_page", "wikitext.parse"),
    ("wikicomm.pipeline", "posts_to_records", "wikitext.parse"),
    ("wikicomm.pipeline", "write_posts_jsonl", "wikitext.write"),
    ("wikicomm.pipeline", "extract_project_members", "wikitext.members"),
    ("wikicomm.pipeline", "build_network", "network.build"),
    ("wikicomm.pipeline", "effective_information", "graph.ei"),
    ("wikicomm.pipeline", "read_edge_list", "graph.edge_io"),
    ("wikicomm.pipeline", "write_edge_list", "graph.edge_io"),
    ("wikicomm.pipeline", "read_assessments_csv", "quality.read"),
    ("wikicomm.pipeline", "dedupe_assessments", "quality.score"),
    ("wikicomm.pipeline", "count_quality", "quality.score"),
    ("wikicomm.pipeline", "q_score", "quality.score"),
    ("wikicomm.pipeline", "ols_fit", "stats.fit"),
    ("wikicomm.pipeline", "nested_f_test", "stats.tests"),
    ("wikicomm.pipeline", "linear_hypothesis", "stats.tests"),
    ("wikicomm.pipeline", "pearson_r", "stats.tests"),
    ("wikicomm.stats", "f_cdf", "special.cdf"),
    ("wikicomm.stats", "t_cdf", "special.cdf"),
    ("wikicomm.client:ResponseCache", "get", "client.cache_get"),
    ("wikicomm.client:ResponseCache", "put", "client.cache_put"),
]


def _count_parse(counts, args, result):
    counts["wikitext.pages"] += 1
    counts["wikitext.bytes"] += len(args[0].wikitext.encode("utf-8"))
    counts["wikitext.mass_threads"] += sum(1 for t in result if t.is_mass_message)


def _count_records(counts, args, result):
    counts["wikitext.posts"] += len(result)


def _count_build(counts, args, result):
    counts["network.pairs_scanned"] += len(args[0])
    counts["network.interactions_kept"] += result.total_weight()


def _count_ei(counts, args, result):
    counts["graph.nodes_max"] = max(counts["graph.nodes_max"], result.active_n)


def _count_rows(counts, args, result):
    counts["quality.rows_read"] += len(result)


def _count_cache_get(counts, args, result):
    counts["client.cache_hits" if result is not None else "client.cache_misses"] += 1


COUNTERS = {
    "parse_talk_page": _count_parse,
    "posts_to_records": _count_records,
    "build_network": _count_build,
    "effective_information": _count_ei,
    "read_assessments_csv": _count_rows,
    "get": _count_cache_get,
}


def _resolve(path: str):
    """The module (``pkg.mod``) or class (``pkg.mod:Class``) a hook patches; None if gone."""
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    """Records (kind, parent, start, end) spans; the stack gives the parent."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [kind, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.hook_errors: list[str] = []

    def _wrap(self, fn, kind: str, counter=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        layer = kind.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([kind, parent, time.monotonic(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = time.monotonic()
                stack.pop()
            if counter is not None and not (parent >= 0 and spans[parent][0].startswith(layer + ".")):
                # Counts are taken outside the span; a changed signature
                # loses the count, not the run.
                try:
                    counter(counts, args, result)
                except Exception as exc:  # noqa: BLE001 - boundary with the package
                    self.hook_errors.append(f"{kind}: {exc!r}")
            return result

        return traced

    def install_stages(self) -> None:
        """Wrap every stage in ``wikicomm.pipeline.STAGES``."""
        stages = getattr(_resolve(STAGE_HOOK[0]), STAGE_HOOK[1], None)
        if not isinstance(stages, dict):
            self.absent.append(".".join(STAGE_HOOK))
            return
        for name, fn in list(stages.items()):
            stages[name] = self._wrap(fn, f"stage.{name}")

    def install_layers(self) -> None:
        for path, attr, kind in LAYER_HOOKS:
            owner = _resolve(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(fn, kind, COUNTERS.get(attr)))
        client_cls = _resolve("wikicomm.client:MediaWikiClient")
        fetch_pages = getattr(client_cls, "fetch_pages", None) if client_cls else None
        if fetch_pages is None:
            self.absent.append("wikicomm.client.MediaWikiClient.fetch_pages")
            return
        counts = self.counts

        @functools.wraps(fetch_pages)
        def counted(*args, **kwargs):
            for record in fetch_pages(*args, **kwargs):
                counts["client.pages"] += 1
                yield record

        client_cls.fetch_pages = counted

    def first_stage_start(self) -> float | None:
        for kind, _, start, _ in self.spans:
            if kind.startswith("stage."):
                return start
        return None

    def summary(self) -> dict:
        """Per kind: calls, inclusive time, longest span; stage self times; layer time.

        A span nested in a span of its own layer (a cache ``get`` inside
        ``put``, a parse inside a parse) adds no time to that layer.
        """
        kinds: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "max_s": 0.0})
        child_time: dict[int, float] = defaultdict(float)
        layer_time: dict[str, float] = defaultdict(float)
        for kind, parent, start, end in self.spans:
            duration = end - start
            parent_kind = self.spans[parent][0] if parent >= 0 else ""
            if parent >= 0:
                child_time[parent] += duration
            if parent_kind.split(".")[0] == kind.split(".")[0]:
                continue
            entry = kinds[kind]
            entry["calls"] += 1
            entry["s"] += duration
            entry["max_s"] = max(entry["max_s"], duration)
            if parent_kind.startswith("stage.") and not kind.startswith("stage."):
                layer_time[kind.split(".")[0]] += duration
        stage_self = defaultdict(float)
        for index, (kind, _, start, end) in enumerate(self.spans):
            if kind.startswith("stage."):
                stage_self[kind[len("stage."):]] += end - start - child_time[index]
        return {
            "kinds": dict(kinds),
            "stage_self_s": dict(stage_self),
            "layer_s": dict(layer_time),
            "counts": dict(self.counts),
            "absent": self.absent,
            "hook_errors": self.hook_errors[:5],
        }
