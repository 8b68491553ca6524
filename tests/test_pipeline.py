import csv
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given, settings

import wikicomm.pipeline as pipeline
import wikicomm.wikitext as wikitext
from wikicomm.client import FetchExhaustedError, MediaWikiClient, canonical_request
from wikicomm.config import ConfigError, PipelineConfig
from wikicomm.pipeline import (
    STAGE_ORDER,
    PipelineStageError,
    run_stage,
    stage_ingest,
)

from fakes import (
    INGEST_OUTPUTS,
    MINIWIKI,
    MiniwikiApi,
    RoutingSession,
    load_jsonl,
    miniwiki_config,
    read_pack,
    seed_workdir,
    wikitexts,
)
from oracles import reference_posts_jsonl, reference_project_members

GOLDEN = MINIWIKI / "golden"

OFFLINE_STAGES = STAGE_ORDER  # ingest reuses pre-seeded inputs when offline


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
        seed_workdir(config.output_dir)
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
        seed_workdir(config.output_dir)
        run_offline(config)
        first = read_out(config)
        run_offline(config)
        assert read_out(config) == first

    def test_project_below_active_threshold_absent_from_regression_input(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
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
        seed_workdir(config.output_dir)
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

    def test_stage_isolation_downstream_corruption(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        run_offline(config)
        out = Path(config.output_dir)
        upstream = {
            name: (out / name).read_bytes()
            for name in ["interactions.tsv", "members.json", "projects.csv", "quality.csv"]
        }
        (out / "variables.csv").write_text("corrupted\n")
        for stage in ["parse", "build", "quality"]:
            run_stage(stage, config)
        for name, payload in upstream.items():
            assert (out / name).read_bytes() == payload
        # Rerunning metrics repairs the corrupted downstream file.
        run_stage("metrics", config)
        assert (out / "variables.csv").read_bytes() == (GOLDEN / "variables.csv").read_bytes()

    def test_failed_summary_write_keeps_previous_projects_csv(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        for stage in ["ingest", "parse", "build"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        before = (out / "projects.csv").read_bytes()
        write_csv = pipeline._write_csv

        def write_header_then_fail(f, header, rows):
            write_csv(f, header, [])
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "_write_csv", write_header_then_fail)
        with pytest.raises(PipelineStageError, match="disk full"):
            run_stage("build", config)
        assert (out / "projects.csv").read_bytes() == before
        assert sorted(out.glob("*.tmp")) == []

    def test_failed_variables_write_keeps_previous_variables_csv(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        for stage in ["ingest", "parse", "build", "quality", "metrics"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        before = (out / "variables.csv").read_bytes()
        write_csv = pipeline._write_csv

        def fail_midway(f, header, rows):
            write_csv(f, header, list(rows)[:3])
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "_write_csv", fail_midway)
        with pytest.raises(PipelineStageError, match="disk full"):
            run_stage("metrics", config)
        assert (out / "variables.csv").read_bytes() == before
        assert sorted(out.glob("*.tmp")) == []

    def test_failed_edge_list_write_keeps_previous_networks(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        for stage in ["ingest", "parse", "build"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        before = {p.name: p.read_bytes() for p in (out / "networks").iterdir()}
        write_edge_list = pipeline.write_edge_list
        calls = []

        def fail_on_third_project(edges, isolated, f):
            calls.append(edges)
            if len(calls) == 3:
                f.write("half a li")
                raise OSError("disk full")
            write_edge_list(edges, isolated, f)

        monkeypatch.setattr(pipeline, "write_edge_list", fail_on_third_project)
        with pytest.raises(PipelineStageError, match="disk full"):
            run_stage("build", config)
        assert {p.name: p.read_bytes() for p in (out / "networks").iterdir()} == before
        assert not (out / "networks.tmp").exists()

    def test_interrupted_network_swap_leaves_no_projects_csv(self, tmp_path, monkeypatch):
        # Swapping networks/ in is the last step of build: interrupted there,
        # metrics must not pair a new projects.csv with the old networks.
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        for stage in ["ingest", "parse", "build", "quality"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        lines = (out / "interactions.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        (out / "interactions.tsv").write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
        rmtree = shutil.rmtree

        def interrupted_at_networks(path, *args, **kwargs):
            if Path(path) == out / "networks":
                raise KeyboardInterrupt
            rmtree(path, *args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(shutil, "rmtree", interrupted_at_networks)
            with pytest.raises(KeyboardInterrupt):
                run_stage("build", config)
        with pytest.raises(PipelineStageError, match=r"'metrics'.*projects\.csv") as info:
            run_stage("metrics", config)
        assert isinstance(info.value.cause, FileNotFoundError)  # exit code 4
        assert not (out / "projects.csv").exists()
        assert sorted(out.glob("*.tmp")) == []

    def test_dropped_project_loses_its_edge_list(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        for stage in ["ingest", "parse", "build"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        members = json.loads((out / "members.json").read_text(encoding="utf-8"))
        assert (out / "networks" / "Kites.edges").exists()
        del members["Kites"]
        (out / "members.json").write_text(json.dumps(members), encoding="utf-8")
        run_stage("build", config)
        assert sorted(p.name for p in (out / "networks").iterdir()) == sorted(
            f"{project}.edges" for project in members
        )
        assert sorted(p.name for p in out.iterdir() if p.name.startswith("networks")) == [
            "networks"
        ]

    def test_slug_collision_fails_build_untouched(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        for stage in ["ingest", "parse", "build"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        members = json.loads((out / "members.json").read_text(encoding="utf-8"))
        # Both names write networks/Birds_Wading.edges.
        members["Birds Wading"] = members["Birds/Wading"] = members["Herons"]
        (out / "members.json").write_text(json.dumps(members), encoding="utf-8")
        before = read_out(config)
        with pytest.raises(PipelineStageError, match="slug collision for 'Birds/Wading'"):
            run_stage("build", config)
        assert read_out(config) == before
        assert not (out / "networks.tmp").exists()

    def test_metrics_never_opens_a_dropped_projects_network(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        for stage in ["ingest", "parse", "build", "quality"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        # Orchids is dropped for 4 < 5 active nodes, Pines for no FA/GA page.
        for project in ["Orchids", "Pines"]:
            (out / "networks" / f"{project}.edges").write_text("not an edge list\n")
        run_stage("metrics", config)
        assert (out / "variables.csv").read_bytes() == (GOLDEN / "variables.csv").read_bytes()

    def test_metrics_logs_the_filtering_funnel(self, tmp_path, caplog):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        for stage in ["ingest", "parse", "build", "quality"]:
            run_stage(stage, config)
        with caplog.at_level("INFO", logger="wikicomm.pipeline"):
            run_stage("metrics", config)
        assert caplog.messages == [
            "metrics: 14 of 16 projects kept; dropped 1 below min_active_nodes (5), "
            "0 without a quality row, 1 without FA/GA"
        ]

    def test_build_on_work_dir_without_interactions_fails_untouched(self, tmp_path):
        # As when build runs before parse.
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        for stage in ["ingest", "parse", "build"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        (out / "interactions.tsv").unlink()
        before = read_out(config)
        with pytest.raises(PipelineStageError, match=r"'build'.*interactions\.tsv"):
            run_stage("build", config)
        assert read_out(config) == before

    @pytest.mark.parametrize("line", [
        "A\tB", "A\tB\t1\tC", "A\tB\tx", "A\tB\t", "A\tB\t-1", "A\tB\t0", "A\tB\t\u00b2",
    ], ids=["two_fields", "four_fields", "letter", "empty", "negative", "zero", "superscript"])
    def test_malformed_interactions_line_fails_build_naming_it(self, tmp_path, line):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        for stage in ["ingest", "parse", "build"]:
            run_stage(stage, config)
        path = Path(config.output_dir) / "interactions.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = line + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        before = read_out(config)
        expected = f"interactions.tsv line 3: malformed line {line + chr(10)!r}"
        with pytest.raises(PipelineStageError, match=f"'build'.*{re.escape(expected)}$"):
            run_stage("build", config)
        assert read_out(config) == before

    def test_quality_summary_reports_fa_ga_correlation(self, tmp_path):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
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


class TestRegressInput:
    """``regress`` reads ``variables.csv`` as written by ``metrics``."""

    def regress_on(self, tmp_path, rows: list[dict]) -> dict:
        config = miniwiki_config(tmp_path)
        out = Path(config.output_dir)
        out.mkdir(parents=True)
        with open(out / "variables.csv", "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return run_stage("regress", config)

    def golden_rows(self) -> list[dict]:
        with open(GOLDEN / "variables.csv", newline="") as f:
            return list(csv.DictReader(f))

    def test_non_numeric_cell_is_named_with_its_line(self, tmp_path):
        rows = self.golden_rows()
        rows[1]["det_norm"] = "high"  # the header is line 1
        with pytest.raises(PipelineStageError) as info:
            self.regress_on(tmp_path, rows)
        assert "line 3" in str(info.value) and "'det_norm'" in str(info.value)

    def test_missing_model_column_is_named(self, tmp_path):
        rows = self.golden_rows()
        for row in rows:
            del row["deg_norm"]
        with pytest.raises(PipelineStageError, match="'deg_norm'"):
            self.regress_on(tmp_path, rows)

    def test_project_column_is_not_parsed_as_a_number(self, tmp_path):
        rows = self.golden_rows()
        for i, row in enumerate(rows):
            row["project"] = f"WikiProject {i}, not a number"
        report = self.regress_on(tmp_path, rows)
        assert report["metadata"]["n"] == len(rows)
        golden = json.loads((GOLDEN / "report.json").read_text())
        assert report["models"] == golden["models"]


class TestReportObservations:
    """``report`` counts the observations the models used, from ``report.json``."""

    @pytest.mark.parametrize("n, comparable", [(14, False), (500, True)])
    def test_observations_are_the_fits_n(self, tmp_path, n, comparable):
        config = miniwiki_config(tmp_path)
        out = Path(config.output_dir)
        out.mkdir(parents=True)
        (out / "report.json").write_text(json.dumps({"metadata": {"n": n}}))
        header, *rows = (GOLDEN / "variables.csv").read_text().splitlines(keepends=True)
        (out / "variables.csv").write_text(header + "".join(rows[:3]))
        run_stage("report", config)
        bundle = json.loads((out / "bundle_meta.json").read_text())
        assert bundle["observations"] == n
        assert bundle["anchors_comparable"] is comparable

    def test_empty_workdir_has_no_observations(self, tmp_path):
        config = miniwiki_config(tmp_path)
        run_stage("report", config)
        bundle = json.loads((Path(config.output_dir) / "bundle_meta.json").read_text())
        assert bundle["observations"] == 0
        assert bundle["anchors_comparable"] is False


@pytest.mark.parametrize("listed", [["A", "B", "C", "D"], ["A", "B", "A", "C", "D", "D"]],
                         ids=["each_once", "repeated"])
def test_build_counts_each_member_once(tmp_path, listed):
    (tmp_path / "interactions.tsv").write_text("A\tB\t2\nC\tB\t1\nA\tZ\t5\n")
    members = {"Quiet": ["E", "F"], "Busy": listed, "Empty": []}
    (tmp_path / "members.json").write_text(json.dumps(members))
    assert run_stage("build", PipelineConfig(output_dir=str(tmp_path))) == 2
    assert (tmp_path / "projects.csv").read_text() == (
        "project,member_count,active_nodes,fraction_in_network\n"
        "Busy,4,3,0.750000\n"
        "Quiet,2,0,0.000000\n"
    )
    assert (tmp_path / "networks" / "Busy.edges").read_text() == "A\tB\t2\nB\tC\t1\nD\t0\n"
    assert (tmp_path / "networks" / "Quiet.edges").read_text() == "E\t0\nF\t0\n"


def test_build_skips_a_project_without_members(tmp_path, caplog):
    (tmp_path / "interactions.tsv").write_text("A\tB\t2\n")
    (tmp_path / "members.json").write_text(json.dumps({"Empty": [], "Pair": ["A", "B"]}))
    with caplog.at_level("WARNING", logger="wikicomm.pipeline"):
        assert run_stage("build", PipelineConfig(output_dir=str(tmp_path))) == 1
    assert caplog.messages == ["project Empty has no detected members, skipped"]
    assert sorted(p.name for p in (tmp_path / "networks").iterdir()) == ["Pair.edges"]
    assert (tmp_path / "projects.csv").read_text() == (
        "project,member_count,active_nodes,fraction_in_network\n"
        "Pair,2,2,1.000000\n"
    )


def write_metrics_workdir(out: Path, projects) -> None:
    """A work dir with only ``projects.csv``, ``quality.csv`` and ``networks/``.

    ``projects`` lists ``(project, active_nodes, n_quality)`` in the order of
    ``projects.csv``; ``n_quality`` None leaves the project without a quality
    row. Each network is a star of ``active_nodes`` nodes plus one isolated
    member.
    """
    (out / "networks").mkdir(parents=True)
    summary = ["project,member_count,active_nodes,fraction_in_network\n"]
    quality = ["project,n_articles,n_quality,q_score\n"]
    for project, active, n_quality in projects:
        summary.append(f"{project},{active + 1},{active},{active / (active + 1):.6f}\n")
        edges = "".join(f"{project}{i}\thub\t{i}\n" for i in range(1, active))
        (out / "networks" / f"{project}.edges").write_text(edges + "spectator\t0\n")
        if n_quality is not None:
            quality.append(f"{project},4,{n_quality},{n_quality / 2:.6f}\n")
    (out / "projects.csv").write_text("".join(summary))
    (out / "quality.csv").write_text("".join(quality))


METRICS_FILTER_CASES = {
    "at_threshold_kept": ([("Ok", 5, 2)], 5, ["Ok"]),
    "below_threshold_dropped": ([("Small", 4, 3)], 5, []),
    "no_quality_pages_dropped": ([("Busy", 8, 0)], 5, []),
    "no_quality_row_dropped": ([("Orphan", 6, None)], 5, []),
    "custom_threshold": ([("Tiny", 3, 1)], 3, ["Tiny"]),
    "input_order_preserved": (
        [("Zinnias", 7, 1), ("Asters", 4, 1), ("Mosses", 9, 1), ("Ferns", 5, 1), ("Bees", 6, 1)],
        5,
        ["Zinnias", "Mosses", "Ferns", "Bees"],
    ),
}


@pytest.mark.parametrize(
    "projects, min_active_nodes, expected",
    METRICS_FILTER_CASES.values(),
    ids=METRICS_FILTER_CASES.keys(),
)
def test_metrics_filters_projects(tmp_path, projects, min_active_nodes, expected):
    write_metrics_workdir(tmp_path, projects)
    run_stage("metrics", PipelineConfig(output_dir=str(tmp_path), min_active_nodes=min_active_nodes))
    with open(tmp_path / "projects.csv", newline="") as f:
        built = {row["project"]: row for row in csv.DictReader(f)}
    with open(tmp_path / "variables.csv", newline="") as f:
        kept = list(csv.DictReader(f))
    assert [row["project"] for row in kept] == expected
    # The counts are copied from projects.csv as they are.
    for row in kept:
        summary = built[row["project"]]
        assert (row["member_count"], row["active_nodes"], row["fraction"]) == (
            summary["member_count"],
            summary["active_nodes"],
            summary["fraction_in_network"],
        )



def test_metrics_names_the_line_of_a_hand_edited_network(tmp_path):
    # A network whose rows are not each pair once, u < v and sorted is
    # refused at the first row out of that form, not summed again.
    write_metrics_workdir(tmp_path, [("Ok", 5, 2)])
    (tmp_path / "networks" / "Ok.edges").write_text(
        "Ok1\thub\t1\nOk2\thub\t2\nhub\tOk3\t3\nOk4\thub\t4\nspectator\t0\n"
    )
    with pytest.raises(
        PipelineStageError, match=r"^stage 'metrics' failed: line 3: edge row has u > v: "
    ):
        run_stage("metrics", PipelineConfig(output_dir=str(tmp_path)))
    assert not (tmp_path / "variables.csv").exists()

# -- parse on one CPU and on a worker pool -----------------------------------

POOLED = {0, 1}  # two CPUs: the parse runs on a pool of two worker processes
IN_PROCESS = {0}  # one CPU: the parse runs in this process
ROUTES = pytest.mark.parametrize("cpus", [POOLED, IN_PROCESS], ids=["pooled", "in_process"])


def parse_on(cpus, config, monkeypatch) -> dict:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    return run_stage("parse", config)


def parse_outputs(config) -> tuple[bytes, bytes]:
    out = Path(config.output_dir)
    return tuple((out / name).read_bytes() for name in ("members.json", "interactions.tsv"))


def reference_records(config, records) -> list[dict]:
    """The oracle's post records of the talk-page records, page by page (None is a blank line)."""
    return [
        json.loads(line)
        for r in records
        if r is not None
        for line in reference_posts_jsonl(
            r["title"], r["wikitext"], config.delivery_agents, config.mass_message_markers
        ).splitlines()
    ]


def reference_post_counts(config, records) -> dict:
    """The parse funnel as the oracle's post records give it: all posts, those in
    mass-message threads, and the owners' own posts outside them."""
    posts = reference_records(config, records)
    return {
        "posts": len(posts),
        "mass_message_posts": sum(p["mass_message"] for p in posts),
        "self_posts": sum(not p["mass_message"] and p["author"] == p["page_owner"] for p in posts),
    }


def reference_interactions(config, records) -> str:
    """``interactions.tsv`` as the oracle's post records give it: per page, per author in
    order of first post, the posts outside mass-message threads, the owner's left out."""
    lines = []
    for r in records:
        posts = reference_records(config, [r])
        counts = Counter(
            post["author"]
            for post in posts
            if not post["mass_message"] and post["author"] != post["page_owner"]
        )
        lines.extend(f"{author}\t{posts[0]['page_owner']}\t{n}\n" for author, n in counts.items())
    return "".join(lines)


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write("\n" if record is None else json.dumps(record, ensure_ascii=False) + "\n")


def seed_multichunk_workdir(config, monkeypatch) -> list:
    """The mini-wiki with its pages repeated as archive subpages, in chunks of 4096 bytes.

    ``talk_pages.jsonl`` spans several chunks, ends with a partial one, and
    holds a blank line and a non-ASCII page. ``project_pages.jsonl`` lists
    every project's subpages after all main pages, so a project's members
    come from more than one chunk. Returns the talk-page records (None for
    the blank line).
    """
    monkeypatch.setattr(pipeline, "PARSE_CHUNK_BYTES", 4096)
    out = seed_workdir(config.output_dir)
    project_pages = load_jsonl(MINIWIKI / "project_pages.jsonl")
    write_jsonl(out / "project_pages.jsonl", sorted(project_pages, key=lambda r: "/" in r["title"]))
    talk = load_jsonl(MINIWIKI / "talk_pages.jsonl")
    records = [
        {"title": f"{r['title']}/Archive {k}", "wikitext": r["wikitext"]} if k else r
        for k in range(4)
        for r in talk
    ]
    records.insert(len(records) // 3, None)
    records.insert(len(records) // 2, {
        "title": "User talk:Zoë",
        "wikitext": "== Grüße ==\nDanke! [[User:Ωmega|Ωmega]] 10:00, 1 May 2021 (UTC)\n",
    })
    write_jsonl(out / "talk_pages.jsonl", records)
    chunks = [size for _, _, _, size in pipeline._line_chunks(out / "talk_pages.jsonl")]
    assert len(chunks) >= 4 and chunks[-1] < 4096
    return records


class TestParallelParse:
    def test_routes_write_identical_bytes_on_miniwiki(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        pooled = parse_on(POOLED, config, monkeypatch), parse_outputs(config)
        in_process = parse_on(IN_PROCESS, config, monkeypatch), parse_outputs(config)
        assert pooled == in_process
        records = load_jsonl(MINIWIKI / "talk_pages.jsonl")
        counts = reference_post_counts(config, records)
        assert pooled[0] == {"pages": 93, **counts, "skipped": 0}

    def test_routes_write_identical_bytes_across_chunks(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        records = seed_multichunk_workdir(config, monkeypatch)
        pooled = parse_on(POOLED, config, monkeypatch), parse_outputs(config)
        in_process = parse_on(IN_PROCESS, config, monkeypatch), parse_outputs(config)
        assert pooled == in_process
        # Chunks are written in input order: the oracle parses page by page.
        members, interactions = pooled[1]
        assert interactions.decode("utf-8") == reference_interactions(config, records)
        pages_by_project: dict = {}
        for r in load_jsonl(MINIWIKI / "project_pages.jsonl"):
            pages_by_project.setdefault(r["project"], []).append((r["title"], r["wikitext"]))
        assert json.loads(members) == {
            project: sorted(reference_project_members(pages))
            for project, pages in pages_by_project.items()
        }
        counts = reference_post_counts(config, records)
        assert pooled[0] == {"pages": 4 * 93 + 1, **counts, "skipped": 0}

    @ROUTES
    def test_malformed_line_fails_parse_and_keeps_previous_outputs(
        self, tmp_path, monkeypatch, cpus
    ):
        config = miniwiki_config(tmp_path)
        seed_multichunk_workdir(config, monkeypatch)
        parse_on(cpus, config, monkeypatch)
        before = parse_outputs(config)
        out = Path(config.output_dir)
        lines = (out / "talk_pages.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        middle = len(lines) // 2
        lines[middle] = lines[middle][: len(lines[middle]) // 2] + "\n"
        (out / "talk_pages.jsonl").write_text("".join(lines), encoding="utf-8")
        with pytest.raises(PipelineStageError, match=rf"'parse'.*line {middle + 1}:"):
            parse_on(cpus, config, monkeypatch)
        assert parse_outputs(config) == before
        assert sorted(out.glob("*.tmp")) == []

    @ROUTES
    @pytest.mark.parametrize("dump, line", [
        ("talk_pages.jsonl", "5"),
        ("talk_pages.jsonl", "null"),
        ("talk_pages.jsonl", "[]"),
        ("talk_pages.jsonl", '"a title and its wikitext"'),
        ("talk_pages.jsonl", '{"title": 3, "wikitext": "x"}'),
        ("talk_pages.jsonl", '{"title": "User talk:Ann", "wikitext": null}'),
        ("project_pages.jsonl", '{"title": "Wikipedia:WikiProject Birds", "wikitext": "x"}'),
    ], ids=["number", "null", "array", "string", "number_title", "null_wikitext", "no_project"])
    def test_record_of_the_wrong_shape_fails_parse_naming_its_line(
        self, tmp_path, monkeypatch, cpus, dump, line
    ):
        config = miniwiki_config(tmp_path)
        seed_multichunk_workdir(config, monkeypatch)
        parse_on(cpus, config, monkeypatch)
        before = parse_outputs(config)
        out = Path(config.output_dir)
        lines = (out / dump).read_text(encoding="utf-8").splitlines(keepends=True)
        middle = len(lines) // 2
        lines[middle] = line + "\n"
        (out / dump).write_text("".join(lines), encoding="utf-8")
        with pytest.raises(
            PipelineStageError, match=rf"'parse'.*line {middle + 1}: page record needs"
        ):
            parse_on(cpus, config, monkeypatch)
        assert parse_outputs(config) == before
        assert sorted(out.glob("*.tmp")) == []

    @ROUTES
    def test_parse_logs_the_post_funnel(self, tmp_path, monkeypatch, caplog, cpus):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        with caplog.at_level("INFO", logger="wikicomm.pipeline"):
            parse_on(cpus, config, monkeypatch)
        counts = reference_post_counts(config, load_jsonl(MINIWIKI / "talk_pages.jsonl"))
        posts, mass, own = counts["posts"], counts["mass_message_posts"], counts["self_posts"]
        assert mass > 0 and own > 0
        assert caplog.messages == [
            f"parse: 93 pages -> {posts} posts (0 records skipped); {posts - mass - own} posts "
            f"kept; dropped {mass} in mass-message threads, {own} self-posts"
        ]

    @pytest.mark.parametrize("multichunk", [False, True], ids=["miniwiki", "multichunk"])
    def test_interactions_match_posts_on_every_route_and_chunk_size(
        self, tmp_path, monkeypatch, multichunk
    ):
        config = miniwiki_config(tmp_path)
        if multichunk:
            talk = seed_multichunk_workdir(config, monkeypatch)
        else:
            seed_workdir(config.output_dir)
            talk = load_jsonl(MINIWIKI / "talk_pages.jsonl")
        outputs = set()
        for chunk_bytes in (4096, 1 << 20):
            monkeypatch.setattr(pipeline, "PARSE_CHUNK_BYTES", chunk_bytes)
            for cpus in (POOLED, IN_PROCESS):
                parse_on(cpus, config, monkeypatch)
                outputs.add(parse_outputs(config))
        assert len(outputs) == 1
        [(_, interactions)] = outputs
        lines = interactions.decode("utf-8").splitlines()
        summed: Counter = Counter()
        for line in lines:
            author, owner, count = line.split("\t")
            summed[author, owner] += int(count)
        records = reference_records(config, talk)
        assert summed == Counter(
            (r["author"], r["page_owner"])
            for r in records
            if not r["mass_message"] and r["author"] != r["page_owner"]
        )
        # Lines are per page: an owner's archive pages repeat its pairs.
        assert (len(lines) > len(summed)) == multichunk

    def test_interaction_lines_per_page_in_order_of_first_post(self, tmp_path):
        owner_page = (
            "== Hello ==\n"
            "Hi [[User:Cal]] 10:00, 1 May 2021 (UTC)\n"
            ":Thanks [[User:Owner]] 10:05, 1 May 2021 (UTC)\n"
            "::Me too [[User:Bea]] 10:06, 1 May 2021 (UTC)\n"
            ":::Again [[User:Cal]] 10:07, 1 May 2021 (UTC)\n"
            "== News ==\n"
            "Issue 4 [[User:Dee]] 10:00, 2 May 2021 (UTC)"
            "<!-- Message sent by User:Dee@enwiki -->\n"
        )
        path = tmp_path / "talk_pages.jsonl"
        write_jsonl(path, [
            {"title": "User talk:Owner", "wikitext": owner_page},
            {"title": "User talk:Cal", "wikitext": "Hey [[User:Bea]] 09:00, 1 May 2021 (UTC)\n"},
        ])
        interactions, pages, posts, mass, own, skipped = pipeline._parse_talk_chunk(
            {"MediaWiki message delivery"},
            ["Message sent by User:"],
            (1, path, 0, path.stat().st_size),
        )
        assert (pages, posts, mass, own, skipped) == (2, 6, 1, 1, [])
        assert interactions == "Cal\tOwner\t2\nBea\tOwner\t1\nBea\tCal\t1\n"

    @given(wikitexts)
    @settings(max_examples=300, deadline=None)
    def test_page_interactions_match_reference_records(self, tmp_path_factory, text):
        config = PipelineConfig()
        record = {"title": "User talk:Zoë_Ng/Archive", "wikitext": text}
        path = tmp_path_factory.getbasetemp() / "one_page.jsonl"
        write_jsonl(path, [record])
        interactions, pages, posts, mass, own, skipped = pipeline._parse_talk_chunk(
            frozenset(config.delivery_agents),
            config.mass_message_markers,
            (1, path, 0, path.stat().st_size),
        )
        counts = reference_post_counts(config, [record])
        assert (pages, posts, mass, own, skipped) == (
            1, counts["posts"], counts["mass_message_posts"], counts["self_posts"], []
        )
        assert interactions == reference_interactions(config, [record])

    def test_dead_worker_fails_parse_instead_of_hanging(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        parse_on(POOLED, config, monkeypatch)
        before = parse_outputs(config)
        # Workers fork from this process, so they inherit the patch.
        monkeypatch.setattr(pipeline, "count_interactions", lambda *a, **k: os._exit(9))

        def hung(signum, frame):
            raise TimeoutError("parse still waiting on a dead worker after 60 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(PipelineStageError, match="parse") as excinfo:
                parse_on(POOLED, config, monkeypatch)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert isinstance(excinfo.value.cause, BrokenProcessPool)
        assert parse_outputs(config) == before
        assert sorted(Path(config.output_dir).glob("*.tmp")) == []

    @ROUTES
    def test_skipped_record_is_logged_once_by_this_process(
        self, tmp_path, monkeypatch, caplog, cpus
    ):
        config = miniwiki_config(tmp_path)
        out = seed_workdir(config.output_dir)
        records = load_jsonl(MINIWIKI / "talk_pages.jsonl")
        records.insert(40, {
            "title": "Talk:Asters",
            "wikitext": "== Hi ==\nSigned [[User:Aster01]] 10:00, 1 May 2021 (UTC)\n",
        })
        write_jsonl(out / "talk_pages.jsonl", records)
        with caplog.at_level("WARNING", logger="wikicomm.pipeline"):
            result = parse_on(cpus, config, monkeypatch)
        assert result["skipped"] == 1 and result["pages"] == 93
        skips = [m for m in caplog.messages if "skipping non-user-talk record" in m]
        assert skips == ["skipping non-user-talk record: not a user talk page title: 'Talk:Asters'"]

    @ROUTES
    def test_talk_title_naming_no_user_is_skipped(self, tmp_path, monkeypatch, caplog, cpus):
        # Each title's user part normalizes to an empty name, so the page has
        # no owner to count posts against.
        config = miniwiki_config(tmp_path)
        out = seed_workdir(config.output_dir)
        counts = parse_on(cpus, config, monkeypatch)
        expected = parse_outputs(config)
        titles = ["User talk:_", "User talk: /Archive 1", "User talk:/x"]
        records = load_jsonl(MINIWIKI / "talk_pages.jsonl")
        for i, title in enumerate(titles):
            records.insert(20 * i, {
                "title": title,
                "wikitext": "== Hi ==\nSigned [[User:Aster01]] 10:00, 1 May 2021 (UTC)\n",
            })
        write_jsonl(out / "talk_pages.jsonl", records)
        with caplog.at_level("WARNING", logger="wikicomm.pipeline"):
            result = parse_on(cpus, config, monkeypatch)
        assert result == dict(counts, skipped=3)
        assert parse_outputs(config) == expected
        skips = [m for m in caplog.messages if "skipping non-user-talk record" in m]
        assert skips == [
            f"skipping non-user-talk record: not a user talk page title: {title!r}"
            for title in titles
        ]

    def test_one_cpu_parses_in_this_process(self, tmp_path, monkeypatch):
        # Profilers and the benchmark's hooks see the parser only on this route.
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        calls = []
        count = pipeline.count_interactions
        monkeypatch.setattr(
            pipeline, "count_interactions", lambda *a, **k: calls.append(1) or count(*a, **k)
        )
        parse_on(POOLED, config, monkeypatch)
        assert calls == []
        parse_on(IN_PROCESS, config, monkeypatch)
        assert len(calls) == 93

    def test_host_without_sched_getaffinity_parses_in_this_process(
        self, tmp_path, monkeypatch
    ):
        # macOS and Windows have no os.sched_getaffinity (and Windows no fork).
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        parse_on(POOLED, config, monkeypatch)
        pooled = parse_outputs(config)
        calls = []
        count = pipeline.count_interactions
        monkeypatch.setattr(
            pipeline, "count_interactions", lambda *a, **k: calls.append(1) or count(*a, **k)
        )
        monkeypatch.delattr(os, "sched_getaffinity")
        run_stage("parse", config)
        assert len(calls) == 93
        assert parse_outputs(config) == pooled

    def test_one_signature_scan_per_talk_page(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        seed_workdir(config.output_dir)
        scans = []
        scan = wikitext._iter_signatures

        def counted(text, skip_headings=False):
            scans.append(skip_headings)
            return scan(text, skip_headings)

        monkeypatch.setattr(wikitext, "_iter_signatures", counted)
        parse_on(IN_PROCESS, config, monkeypatch)
        # Talk pages skip heading lines; project pages (31 records) do not.
        assert Counter(scans) == {True: 93, False: 31}
        talk = load_jsonl(MINIWIKI / "talk_pages.jsonl")
        assert parse_outputs(config)[1].decode() == reference_interactions(config, talk)

    @ROUTES
    def test_crlf_dumps_parse_as_lf_dumps(self, tmp_path, monkeypatch, cpus):
        config = miniwiki_config(tmp_path)
        out = Path(config.output_dir)
        seed_multichunk_workdir(config, monkeypatch)
        lf = parse_on(cpus, config, monkeypatch), parse_outputs(config)
        for name in ("project_pages.jsonl", "talk_pages.jsonl"):
            data = (out / name).read_bytes()
            assert b"\r" not in data
            (out / name).write_bytes(data.replace(b"\n", b"\r\n"))
        assert (parse_on(cpus, config, monkeypatch), parse_outputs(config)) == lf

    @ROUTES
    def test_malformed_line_after_non_ascii_pages_names_its_line(
        self, tmp_path, monkeypatch, cpus
    ):
        # Two- to four-byte characters: a chunk's byte size is far from its
        # character count, so line numbers taken from either would drift.
        # U+2028 and U+0085 end a line for str.splitlines, not for the dump.
        monkeypatch.setattr(pipeline, "PARSE_CHUNK_BYTES", 4096)
        config = miniwiki_config(tmp_path)
        out = seed_workdir(config.output_dir)
        text = "== Grüße ==\n日本語 Ωmega \U0001f600 \u2028\x85 " * 40
        text += "[[User:Zoë]] 10:00, 1 May 2021 (UTC)\n"
        records = [{"title": f"User talk:Ærin/Archive {k}", "wikitext": text} for k in range(40)]
        lines = [json.dumps(r, ensure_ascii=False) + "\n" for r in records]
        lines.insert(7, "\n")
        bad = len(lines) - 3
        lines[bad] = lines[bad][:100] + "\n"
        (out / "talk_pages.jsonl").write_text("".join(lines), encoding="utf-8")
        assert len(list(pipeline._line_chunks(out / "talk_pages.jsonl"))) > 10
        with pytest.raises(PipelineStageError, match=rf"'parse'.*line {bad + 1}:"):
            parse_on(cpus, config, monkeypatch)

    def test_undecodable_line_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "PARSE_CHUNK_BYTES", 4096)
        config = miniwiki_config(tmp_path)
        out = seed_workdir(config.output_dir)
        lines = (out / "talk_pages.jsonl").read_bytes().splitlines(keepends=True)
        lines[60] = lines[60].replace(b"User talk:", b"User talk:\xff", 1)
        (out / "talk_pages.jsonl").write_bytes(b"".join(lines))
        with pytest.raises(PipelineStageError, match=r"'parse'.*line 61: 'utf-8' codec"):
            parse_on(IN_PROCESS, config, monkeypatch)

    def test_importing_wikicomm_loads_no_process_pool(self):
        code = (
            "import sys, wikicomm.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"


# -- full run against a mocked API -------------------------------------------


class TestMockedIngestRun:
    def make_config(self, tmp_path):
        return miniwiki_config(tmp_path, offline=False, request_interval=0.001)

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
        # One pack of one record per request, and no leftover temporary file.
        [pack] = Path(config.cache_dir).iterdir()
        assert pack.suffix == ".pack"
        keys = [header["key"] for header, _ in read_pack(pack)]
        assert keys == [canonical_request(config.api_base_url, p) for p in session.calls]
        assert len(set(keys)) == len(keys)
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

        # Rerun on the warm cache: zero network calls, byte-identical bundle,
        # the cache left as it was.
        cached = pack.read_bytes()
        broken = RoutingSession(lambda params: (_ for _ in ()).throw(AssertionError("network")))
        self.run_all(config, broken)
        assert broken.calls == []
        for name, payload in first.items():
            assert (Path(config.output_dir) / name).read_bytes() == payload
        assert list(Path(config.cache_dir).iterdir()) == [pack]
        assert pack.read_bytes() == cached
        assert not list(Path(config.output_dir).rglob("*.tmp"))

    def test_cache_of_only_pre_pack_files_reads_as_empty(self, tmp_path):
        # Before packs, a cache held a <sha256>.entry per answer (a header line
        # without a size, then the payload), and before that a <sha256>.body
        # beside a <sha256>.meta.json. Such files are ignored and left as they are.
        config = self.make_config(tmp_path)
        session = RoutingSession(MiniwikiApi())
        stage_ingest(config, MediaWikiClient(config, session=session, sleep=lambda s: None))
        cache = Path(config.cache_dir)
        [pack] = cache.iterdir()
        (first, first_payload), (second, second_payload) = read_pack(pack)[:2]
        pack.unlink()

        def stem(header):
            return hashlib.sha256(header["key"].encode("utf-8")).hexdigest()

        def sizeless(header):
            return json.dumps({"fetched_at": header["fetched_at"], "key": header["key"]},
                              sort_keys=True)

        (cache / f"{stem(first)}.entry").write_bytes(
            sizeless(first).encode("ascii") + b"\n" + first_payload
        )
        (cache / f"{stem(second)}.body").write_bytes(second_payload)
        (cache / f"{stem(second)}.meta.json").write_text(sizeless(second))
        before = {p.name: p.read_bytes() for p in cache.iterdir()}

        config.output_dir = str(tmp_path / "replay")
        config.offline = True
        broken = RoutingSession(lambda params: (_ for _ in ()).throw(AssertionError("network")))
        title = json.loads(first["key"])["params"]["titles"]
        with pytest.raises(FetchExhaustedError, match=f"not cached: {re.escape(title)}$"):
            stage_ingest(config, MediaWikiClient(config, session=broken))
        assert broken.calls == []
        assert {p.name: p.read_bytes() for p in cache.iterdir()} == before

    def test_interrupted_crawl_resumes_into_a_second_pack(self, tmp_path):
        whole = self.make_config(tmp_path / "whole")
        uninterrupted = RoutingSession(MiniwikiApi())
        stage_ingest(whole, MediaWikiClient(whole, session=uninterrupted, sleep=lambda s: None))

        config = self.make_config(tmp_path)
        answered, api = 7, MiniwikiApi()

        def interrupt_after_answers(params):
            if len(interrupted.calls) > answered:
                raise KeyboardInterrupt
            return api(params)

        interrupted = RoutingSession(interrupt_after_answers)
        with pytest.raises(KeyboardInterrupt):
            stage_ingest(config, MediaWikiClient(config, session=interrupted, sleep=lambda s: None))
        rerun = RoutingSession(MiniwikiApi())
        stage_ingest(config, MediaWikiClient(config, session=rerun, sleep=lambda s: None))

        assert len(uninterrupted.calls) > answered + 1
        assert interrupted.calls[:answered] == uninterrupted.calls[:answered]
        assert rerun.calls == uninterrupted.calls[answered:]
        packs = sorted(Path(config.cache_dir).iterdir())
        assert [len(read_pack(pack)) for pack in packs] == [answered, len(rerun.calls)]
        for name in INGEST_OUTPUTS[:-1]:
            assert (Path(config.output_dir) / name).read_bytes() == (
                Path(whole.output_dir) / name
            ).read_bytes()
        resumed, expected = (
            json.loads((Path(c.output_dir) / "fetch_manifest.json").read_text())
            for c in (config, whole)
        )
        for manifest in (resumed, expected):
            del manifest["earliest_fetch"], manifest["latest_fetch"]
        assert resumed == expected == {"requests": len(uninterrupted.calls)}

    def test_failed_ingest_keeps_previous_downloads(self, tmp_path):
        config = self.make_config(tmp_path)
        session = RoutingSession(MiniwikiApi())
        stage_ingest(config, MediaWikiClient(config, session=session, sleep=lambda s: None))
        out = Path(config.output_dir)
        before = read_out(config)

        # A fresh cache, so the second ingest fetches again, and a server that
        # refuses the third talk page for good.
        config.cache_dir = str(tmp_path / "cold-cache")
        config.max_retries = 0
        api = MiniwikiApi()
        talk_requests = []

        def refuse_third_talk_page(params):
            if params.get("titles", "").startswith("User talk:"):
                talk_requests.append(params["titles"])
                if len(talk_requests) == 3:
                    return 429, {}
            return api(params)

        session = RoutingSession(refuse_third_talk_page)
        with pytest.raises(FetchExhaustedError):
            stage_ingest(config, MediaWikiClient(config, session=session, sleep=lambda s: None))
        assert len(talk_requests) == 3
        assert read_out(config) == before
        assert not list(out.glob("*.tmp"))
