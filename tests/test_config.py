import io
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from wikicomm.cli import EXIT_CONFIG, main
from wikicomm.config import ConfigError, PipelineConfig, normalize_project_name


class TestNormalizeProjectName:
    def test_full_prefix(self):
        assert normalize_project_name("Wikipedia:WikiProject Tropical cyclones") == (
            "Tropical cyclones"
        )

    def test_underscores_and_case(self):
        assert normalize_project_name("tropical_cyclones") == "Tropical cyclones"

    def test_already_canonical_unchanged(self):
        assert normalize_project_name("Tropical cyclones") == "Tropical cyclones"

    def test_idempotent(self):
        once = normalize_project_name("Wikipedia:WikiProject military_history")
        assert normalize_project_name(once) == once

    def test_alias_table_applied(self):
        aliases = {"Juniper trees": "Junipers"}
        assert normalize_project_name("juniper_trees", aliases) == "Junipers"
        assert normalize_project_name("Wikipedia:WikiProject Juniper trees", aliases) == (
            "Junipers"
        )

    def test_empty_result_errors(self):
        with pytest.raises(ConfigError):
            normalize_project_name("Wikipedia:WikiProject ")
        with pytest.raises(ConfigError):
            normalize_project_name("   ")


class TestPipelineConfig:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config.request_interval == 1.0
        assert config.min_active_nodes == 5
        assert config.p_exponent == 0.5

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            PipelineConfig(request_interval=0)
        with pytest.raises(ConfigError):
            PipelineConfig(min_active_nodes=1)
        with pytest.raises(ConfigError):
            PipelineConfig(p_exponent=1.5)
        with pytest.raises(ConfigError):
            PipelineConfig(max_retries=-1)

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            PipelineConfig.from_json(io.StringIO('{"turbo_mode": true}'))

    def test_from_json_rejects_bad_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            PipelineConfig.from_json(io.StringIO("{nope"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(tmp_path / "nothing.json")

    def test_canonical_projects_dedupes_preserving_order(self):
        config = PipelineConfig(
            projects=["Wikipedia:WikiProject Kites", "kites", "Asters"]
        )
        assert config.canonical_projects() == ["Kites", "Asters"]

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"projects": ["Asters"], "p_exponent": 0.25}))
        config = PipelineConfig.from_file(path)
        assert config.projects == ["Asters"]
        assert config.p_exponent == 0.25

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"projects": "Birds"}', "projects"),
            ('{"projects": ["Birds", 7]}', "projects"),
            ('{"offline": "no"}', "offline"),
            ('{"min_active_nodes": true}', "min_active_nodes"),
            ('{"max_retries": 3.0}', "max_retries"),
            ('{"request_interval": "1"}', "request_interval"),
            ('{"p_exponent": false}', "p_exponent"),
            ('{"api_base_url": null}', "api_base_url"),
            ('{"project_aliases": {"Juniper trees": 1}}', "project_aliases"),
        ],
    )
    def test_from_json_rejects_wrong_types(self, text, key):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
            PipelineConfig.from_json(io.StringIO(text))

    @pytest.mark.parametrize(
        "key",
        ["user_talk_query", "assessments_query", "project_subpages", "require_both_members"],
    )
    def test_removed_keys_are_unknown(self, tmp_path, capsys, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: {}}))
        assert main(["--config", str(path), "ingest"]) == EXIT_CONFIG
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert sorted(keys) == sorted(f.name for f in fields(PipelineConfig))

    def test_from_json_takes_an_integer_for_a_number(self):
        config = PipelineConfig.from_json(io.StringIO('{"p_exponent": 1, "request_interval": 2}'))
        assert (config.p_exponent, config.request_interval) == (1, 2)
