"""Toolkit for reconstructing direct-communication networks of Wikipedia
editor groups from talk pages, measuring their walk-structure metrics, and
relating structure to the quality of group output."""

__version__ = "0.1.0"

from .graph import StructureMetrics, WeightedGraph, effective_information
from .network import ProjectRecord, build_networks, filter_projects, project_record
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
from .wikitext import (
    DiscussionThread,
    Post,
    Signature,
    TalkPage,
    canonical_username,
    extract_posts,
    extract_project_members,
    is_mass_message,
    parse_signature,
    parse_talk_page,
    split_threads,
)

__all__ = [
    "__version__",
    "WeightedGraph",
    "StructureMetrics",
    "effective_information",
    "TalkPage",
    "DiscussionThread",
    "Post",
    "Signature",
    "canonical_username",
    "parse_signature",
    "split_threads",
    "extract_posts",
    "is_mass_message",
    "parse_talk_page",
    "extract_project_members",
    "ProjectRecord",
    "build_networks",
    "project_record",
    "filter_projects",
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
