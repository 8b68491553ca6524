"""Pipeline configuration: API endpoints, throttling, filtering thresholds."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Optional, get_type_hints

from .wikitext import (
    DEFAULT_DELIVERY_AGENTS,
    DEFAULT_MASS_MESSAGE_MARKERS,
    canonical_username,
)

__all__ = ["ConfigError", "PipelineConfig", "normalize_project_name"]


class ConfigError(Exception):
    """Invalid or unusable configuration."""


# What each config field type accepts from JSON: its description and its
# check. A JSON true or false is not a number here, although bool is an int.
_JSON_TYPES = {
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    list[str]: (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    ),
    dict[str, str]: (
        "an object of strings",
        lambda v: isinstance(v, dict) and all(isinstance(x, str) for x in v.values()),
    ),
}


def normalize_project_name(raw: str, aliases: Optional[dict[str, str]] = None) -> str:
    """Standardize an inconsistently written Wikiproject name.

    Strips ``Wikipedia:`` and ``WikiProject`` prefixes, collapses whitespace
    and underscores, uppercases the first letter, then applies the alias
    table. Idempotent for already-canonical input.

    Raises:
        ConfigError: if nothing remains after stripping.
    """
    name = raw.replace("_", " ").strip()
    name = re.sub(r"^\s*Wikipedia\s*:\s*", "", name, flags=re.IGNORECASE)
    name = re.sub(r"^\s*WikiProject\b\s*", "", name, flags=re.IGNORECASE)
    name = canonical_username(name)
    if aliases:
        name = aliases.get(name, name)
    if not name:
        raise ConfigError(f"project name is empty after normalization: {raw!r}")
    return name


@dataclass
class PipelineConfig:
    """All knobs of the end-to-end pipeline; see README for the JSON schema."""

    api_base_url: str = "https://en.wikipedia.org/w/api.php"
    request_interval: float = 1.0
    max_retries: int = 3
    cache_dir: str = "cache"
    output_dir: str = "out"
    projects: list[str] = field(default_factory=list)
    p_exponent: float = 0.5
    min_active_nodes: int = 5
    delivery_agents: list[str] = field(default_factory=lambda: list(DEFAULT_DELIVERY_AGENTS))
    mass_message_markers: list[str] = field(
        default_factory=lambda: list(DEFAULT_MASS_MESSAGE_MARKERS)
    )
    project_aliases: dict[str, str] = field(default_factory=dict)
    user_agent: str = "wikicomm/0.1 (collaboration-network research toolkit)"
    offline: bool = False

    def __post_init__(self) -> None:
        if self.request_interval <= 0:
            raise ConfigError(f"request_interval must be > 0, got {self.request_interval}")
        if self.min_active_nodes < 2:
            raise ConfigError(f"min_active_nodes must be >= 2, got {self.min_active_nodes}")
        if not 0.0 <= self.p_exponent <= 1.0:
            raise ConfigError(f"p_exponent must be in [0, 1], got {self.p_exponent}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Load a JSON config file; unknown keys are rejected."""
        try:
            with open(path, encoding="utf-8") as f:
                return cls.from_json(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    @classmethod
    def from_json(cls, source: IO[str]) -> "PipelineConfig":
        try:
            data = json.load(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        types = get_type_hints(cls)
        for key, value in data.items():
            expected, accepts = _JSON_TYPES[types[key]]
            if not accepts(value):
                raise ConfigError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def canonical_projects(self) -> list[str]:
        """The configured project list, normalized, order-preserving, deduped."""
        seen: dict[str, None] = {}
        for raw in self.projects:
            seen.setdefault(normalize_project_name(raw, self.project_aliases))
        return list(seen)

    def to_metadata(self) -> dict:
        """Config snapshot for bundle metadata (plain JSON types only)."""
        return {
            "api_base_url": self.api_base_url,
            "request_interval": self.request_interval,
            "p_exponent": self.p_exponent,
            "min_active_nodes": self.min_active_nodes,
            "projects": self.canonical_projects(),
        }
