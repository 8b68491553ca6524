"""Toolkit for reconstructing direct-communication networks of Wikipedia
editor groups from talk pages, measuring their walk-structure metrics, and
relating structure to the quality of group output."""

__version__ = "0.1.0"

from .graph import StructureMetrics, WeightedGraph, effective_information
from .network import build_networks
from .quality import Grade, q_score
from .stats import (
    DataMatrix,
    FTestResult,
    OlsFit,
    descriptives,
    linear_hypothesis,
    nested_f_test,
    ols_fit,
    pearson_r,
)
from .wikitext import TalkPage, canonical_username, extract_project_members

__all__ = [
    "__version__",
    "WeightedGraph",
    "StructureMetrics",
    "effective_information",
    "TalkPage",
    "canonical_username",
    "extract_project_members",
    "build_networks",
    "Grade",
    "q_score",
    "DataMatrix",
    "OlsFit",
    "FTestResult",
    "descriptives",
    "pearson_r",
    "ols_fit",
    "nested_f_test",
    "linear_hypothesis",
]
