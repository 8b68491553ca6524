import csv
import json
import shutil
import time
from pathlib import Path

import pytest

from wikicomm.client import MediaWikiClient
from wikicomm.config import ConfigError, PipelineConfig
from wikicomm.pipeline import (
    STAGE_ORDER,
    PipelineStageError,
    run_stage,
    stage_ingest,
)

from fakes import RoutingSession

MINIWIKI = Path(__file__).parent / "fixtures" / "miniwiki"
GOLDEN = MINIWIKI / "golden"

OFFLINE_STAGES = STAGE_ORDER  # ingest reuses pre-seeded inputs when offline


def miniwiki_config(tmp_path) -> PipelineConfig:
    config = PipelineConfig.from_file(MINIWIKI / "config.json")
    config.output_dir = str(tmp_path / "out")
    config.cache_dir = str(tmp_path / "cache")
    config.offline = True
    return config


def seed_workdir(config: PipelineConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ["project_pages.jsonl", "talk_pages.jsonl", "assessments.csv"]:
        shutil.copy(MINIWIKI / name, out / name)
    return out


def golden_files() -> list[Path]:
    return sorted(p for p in GOLDEN.rglob("*") if p.is_file())


def run_offline(config: PipelineConfig) -> None:
    for stage in OFFLINE_STAGES:
        run_stage(stage, config)


def read_out(config: PipelineConfig) -> dict[str, bytes]:
    out = Path(config.output_dir)
    return {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }


class TestGoldenRun:
    def test_reproduces_all_goldens_byte_for_byte(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        started = time.monotonic()
        run_offline(config)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        for golden_path in golden_files():
            rel = golden_path.relative_to(GOLDEN)
            actual = Path(config.output_dir) / rel
            assert actual.exists(), f"missing output {rel}"
            assert actual.read_bytes() == golden_path.read_bytes(), f"differs: {rel}"

    def test_rerun_is_byte_identical(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        run_offline(config)
        first = read_out(config)
        run_offline(config)
        assert read_out(config) == first

    def test_project_below_active_threshold_absent_from_regression_input(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        run_offline(config)
        with open(Path(config.output_dir) / "variables.csv", newline="") as f:
            projects = [row["project"] for row in csv.DictReader(f)]
        assert "Orchids" not in projects  # 4 active nodes < 5
        assert "Pines" not in projects  # no FA/GA pages
        assert len(projects) == 14
        # Both still exist upstream: networks were built for every project.
        summary = Path(config.output_dir) / "projects.csv"
        with open(summary, newline="") as f:
            built = [row["project"] for row in csv.DictReader(f)]
        assert "Orchids" in built and "Pines" in built

    def test_mass_message_and_scope_tripwires_hold(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        for stage in ["ingest", "parse", "build"]:
            run_stage(stage, config)
        edges = (Path(config.output_dir) / "networks" / "Geckos.edges").read_text()
        assert "Gecko02\tGecko04" not in edges  # newsletter thread excluded
        nettles = (Path(config.output_dir) / "networks" / "Nettles.edges").read_text()
        assert "Nettle03\tNettle05" not in nettles  # marker newsletter excluded
        elms = (Path(config.output_dir) / "networks" / "Elms.edges").read_text()
        assert "Aster01" not in elms  # cross-project post excluded
        kites = (Path(config.output_dir) / "networks" / "Kites.edges").read_text()
        assert "Wanderer" not in kites  # non-member excluded

    def test_single_member_interactions_when_both_not_required(self, tmp_path):
        config = miniwiki_config(tmp_path)
        config.require_both_members = False
        seed_workdir(config)
        for stage in ["ingest", "parse", "build", "quality", "metrics"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        kites = (out / "networks" / "Kites.edges").read_text()
        assert "Kite02\tWanderer\t1\n" in kites
        with open(out / "projects.csv", newline="") as f:
            rows = {row["project"]: row for row in csv.DictReader(f)}
        # Wanderer joins the network but is not a member: the fraction is unchanged.
        assert (rows["Kites"]["active_nodes"], rows["Kites"]["fraction_in_network"]) == (
            "9",
            "0.727273",
        )
        with open(out / "variables.csv", newline="") as f:
            kept = {row["project"]: row for row in csv.DictReader(f)}
        assert kept["Kites"]["fraction"] == "0.727273"

    def test_stage_isolation_downstream_corruption(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        run_offline(config)
        out = Path(config.output_dir)
        upstream = {
            name: (out / name).read_bytes()
            for name in ["posts.jsonl", "members.json", "projects.csv", "quality.csv"]
        }
        (out / "variables.csv").write_text("corrupted\n")
        for stage in ["parse", "build", "quality"]:
            run_stage(stage, config)
        for name, payload in upstream.items():
            assert (out / name).read_bytes() == payload
        # Rerunning metrics repairs the corrupted downstream file.
        run_stage("metrics", config)
        assert (out / "variables.csv").read_bytes() == (GOLDEN / "variables.csv").read_bytes()

    def test_quality_summary_reports_fa_ga_correlation(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        for stage in ["ingest", "quality"]:
            run_stage(stage, config)
        summary = json.loads(
            (Path(config.output_dir) / "quality_summary.json").read_text()
        )
        assert summary["projects_scored"] == 16
        assert 0.0 < summary["fa_ga_pearson_r"] <= 1.0
        assert 0.0 <= summary["fa_ga_p_value"] < 0.05

    def test_stage_error_names_stage(self, tmp_path):
        config = miniwiki_config(tmp_path)
        Path(config.output_dir).mkdir(parents=True)
        with pytest.raises(PipelineStageError, match="parse"):
            run_stage("parse", config)

    def test_unknown_stage_rejected(self, tmp_path):
        config = miniwiki_config(tmp_path)
        with pytest.raises(ConfigError):
            run_stage("launch", config)


# -- full run against a mocked API -------------------------------------------


def load_jsonl(path: Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    return records


class MiniwikiApi:
    """Serves the mini-wiki fixtures in MediaWiki API response shapes."""

    def __init__(self):
        self.pages = {
            record["title"]: record["wikitext"]
            for record in load_jsonl(MINIWIKI / "project_pages.jsonl")
        }
        self.pages.update(
            {
                record["title"]: record["wikitext"]
                for record in load_jsonl(MINIWIKI / "talk_pages.jsonl")
            }
        )
        with open(MINIWIKI / "assessments.csv", newline="", encoding="utf-8") as f:
            self.assessment_rows = list(csv.DictReader(f))
        self.split = len(self.assessment_rows) // 2

    def _assessment_page(self, rows):
        return [
            {
                "title": row["article"],
                "pageassessments": {row["project"]: {"class": row["grade"]}},
            }
            for row in rows
        ]

    def __call__(self, params):
        if "titles" in params:
            title = params["titles"]
            if title in self.pages:
                return 200, {
                    "query": {
                        "pages": [
                            {
                                "title": title,
                                "revisions": [
                                    {"slots": {"main": {"content": self.pages[title]}}}
                                ],
                            }
                        ]
                    }
                }
            return 200, {"query": {"pages": [{"title": title, "missing": True}]}}
        if params.get("generator") == "allpages":
            if "gapcontinue" not in params:
                return 200, {
                    "query": {"pages": self._assessment_page(self.assessment_rows[: self.split])},
                    "continue": {"gapcontinue": "second-batch", "continue": "gapcontinue||"},
                }
            return 200, {
                "query": {"pages": self._assessment_page(self.assessment_rows[self.split :])}
            }
        raise AssertionError(f"unexpected request: {params}")


class TestMockedIngestRun:
    def make_config(self, tmp_path):
        config = PipelineConfig.from_file(MINIWIKI / "config.json")
        config.output_dir = str(tmp_path / "out")
        config.cache_dir = str(tmp_path / "cache")
        config.request_interval = 0.001
        return config

    def run_all(self, config, session):
        client = MediaWikiClient(config, session=session, sleep=lambda s: None)
        stage_ingest(config, client)
        for stage in STAGE_ORDER[1:]:
            run_stage(stage, config)

    def test_full_run_and_warm_cache_rerun(self, tmp_path):
        config = self.make_config(tmp_path)
        session = RoutingSession(MiniwikiApi())
        self.run_all(config, session)
        assert len(session.calls) > 0
        first = {
            name: (Path(config.output_dir) / name).read_bytes()
            for name in ["project_pages.jsonl", "talk_pages.jsonl", "assessments.csv",
                         "variables.csv", "report.json", "report.txt", "bundle_meta.json"]
        }
        # Ingest outputs equal the pre-seeded fixtures exactly.
        for name in ["project_pages.jsonl", "talk_pages.jsonl", "assessments.csv"]:
            assert first[name] == (MINIWIKI / name).read_bytes()
        # Analysis outputs equal the goldens.
        for name in ["variables.csv", "report.json", "report.txt"]:
            assert first[name] == (GOLDEN / name).read_bytes()

        # Rerun on the warm cache: zero network calls, byte-identical bundle.
        broken = RoutingSession(lambda params: (_ for _ in ()).throw(AssertionError("network")))
        self.run_all(config, broken)
        assert broken.calls == []
        for name, payload in first.items():
            assert (Path(config.output_dir) / name).read_bytes() == payload
