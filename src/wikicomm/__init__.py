"""Toolkit for reconstructing direct-communication networks of Wikipedia
editor groups from talk pages, measuring their walk-structure metrics, and
relating structure to the quality of group output.

The names below load their module on first access (PEP 562), so that
``import wikicomm.cli`` and the commands that never compute with a layer
(``ingest``, ``parse``, ``--help``) do not load the graph, network, quality
and statistics modules at start-up.
"""

import importlib

__version__ = "0.1.0"

# Each re-exported name, in the order of ``__all__``, and the module that defines it.
_EXPORTS = {
    "WeightedGraph": "graph",
    "StructureMetrics": "graph",
    "effective_information": "graph",
    "TalkPage": "wikitext",
    "canonical_username": "wikitext",
    "extract_project_members": "wikitext",
    "build_networks": "network",
    "Grade": "quality",
    "q_score": "quality",
    "OlsFit": "stats",
    "FTestResult": "stats",
    "descriptives": "stats",
    "pearson_r": "stats",
    "ols_fit": "stats",
    "nested_f_test": "stats",
    "linear_hypothesis": "stats",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
