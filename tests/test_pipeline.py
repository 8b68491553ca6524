import csv
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import wikicomm.pipeline as pipeline
from wikicomm.client import FetchExhaustedError, MediaWikiClient, canonical_request
from wikicomm.config import ConfigError, PipelineConfig
from wikicomm.pipeline import (
    STAGE_ORDER,
    PipelineStageError,
    run_stage,
    stage_ingest,
)

from fakes import RoutingSession, write_legacy_cache_entry
from oracles import reference_posts_jsonl, reference_project_members

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

    def test_failed_summary_write_keeps_previous_projects_csv(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        for stage in ["ingest", "parse", "build"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        before = (out / "projects.csv").read_bytes()

        def write_one_line_then_fail(records, f):
            f.write("project,member_count,active_nodes,fraction_in_network\n")
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "write_project_summary", write_one_line_then_fail)
        with pytest.raises(PipelineStageError, match="disk full"):
            run_stage("build", config)
        assert (out / "projects.csv").read_bytes() == before
        assert sorted(out.glob("*.tmp")) == []

    def test_failed_variables_write_keeps_previous_variables_csv(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
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

    def test_build_on_work_dir_without_interactions_fails_untouched(self, tmp_path):
        # A work dir parsed by an older version has posts.jsonl but no interactions.tsv.
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        for stage in ["ingest", "parse", "build"]:
            run_stage(stage, config)
        out = Path(config.output_dir)
        (out / "interactions.tsv").unlink()
        before = read_out(config)
        with pytest.raises(PipelineStageError, match=r"'build'.*interactions\.tsv"):
            run_stage("build", config)
        assert read_out(config) == before

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


# -- parse on one CPU and on a worker pool -----------------------------------

POOLED = {0, 1}  # two CPUs: the parse runs on a pool of two worker processes
IN_PROCESS = {0}  # one CPU: the parse runs in this process
ROUTES = pytest.mark.parametrize("cpus", [POOLED, IN_PROCESS], ids=["pooled", "in_process"])


def parse_on(cpus, config, monkeypatch) -> dict:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    return run_stage("parse", config)


def parse_outputs(config) -> tuple[bytes, bytes, bytes]:
    out = Path(config.output_dir)
    return tuple(
        (out / name).read_bytes() for name in ("posts.jsonl", "members.json", "interactions.tsv")
    )


def write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write("\n" if record is None else json.dumps(record, ensure_ascii=False) + "\n")


def seed_multichunk_workdir(config, monkeypatch) -> list:
    """The mini-wiki with its pages repeated as archive subpages, in chunks of 4096 characters.

    ``talk_pages.jsonl`` spans several chunks, ends with a partial one, and
    holds a blank line and a non-ASCII page. ``project_pages.jsonl`` lists
    every project's subpages after all main pages, so a project's members
    come from more than one chunk. Returns the talk-page records (None for
    the blank line).
    """
    monkeypatch.setattr(pipeline, "PARSE_CHUNK_CHARS", 4096)
    out = seed_workdir(config)
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
    with open(out / "talk_pages.jsonl", encoding="utf-8") as f:
        chunks = [len("".join(lines)) for _, lines in pipeline._line_chunks(f)]
    assert len(chunks) >= 4 and chunks[-1] < 4096
    return records


class TestParallelParse:
    def test_routes_write_identical_bytes_on_miniwiki(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        pooled = parse_on(POOLED, config, monkeypatch), parse_outputs(config)
        in_process = parse_on(IN_PROCESS, config, monkeypatch), parse_outputs(config)
        assert pooled == in_process
        assert pooled[0] == {"pages": 93, "posts": in_process[1][0].count(b"\n"), "skipped": 0}

    def test_routes_write_identical_bytes_across_chunks(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        records = seed_multichunk_workdir(config, monkeypatch)
        pooled = parse_on(POOLED, config, monkeypatch), parse_outputs(config)
        in_process = parse_on(IN_PROCESS, config, monkeypatch), parse_outputs(config)
        assert pooled == in_process
        # Chunks are written in input order: the oracle parses page by page.
        expected = "".join(
            reference_posts_jsonl(
                r["title"], r["wikitext"], config.delivery_agents, config.mass_message_markers
            )
            for r in records
            if r is not None
        )
        posts, members, _ = pooled[1]
        assert posts.decode("utf-8") == expected
        pages_by_project: dict = {}
        for r in load_jsonl(MINIWIKI / "project_pages.jsonl"):
            pages_by_project.setdefault(r["project"], []).append((r["title"], r["wikitext"]))
        assert json.loads(members) == {
            project: sorted(reference_project_members(pages))
            for project, pages in pages_by_project.items()
        }
        assert pooled[0] == {"pages": 4 * 93 + 1, "posts": expected.count("\n"), "skipped": 0}

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

    @pytest.mark.parametrize("multichunk", [False, True], ids=["miniwiki", "multichunk"])
    def test_interactions_match_posts_on_every_route_and_chunk_size(
        self, tmp_path, monkeypatch, multichunk
    ):
        config = miniwiki_config(tmp_path)
        if multichunk:
            seed_multichunk_workdir(config, monkeypatch)
        else:
            seed_workdir(config)
        outputs = set()
        for chunk_chars in (4096, 1 << 20):
            monkeypatch.setattr(pipeline, "PARSE_CHUNK_CHARS", chunk_chars)
            for cpus in (POOLED, IN_PROCESS):
                parse_on(cpus, config, monkeypatch)
                outputs.add(parse_outputs(config))
        assert len(outputs) == 1
        [(posts, _, interactions)] = outputs
        lines = interactions.decode("utf-8").splitlines()
        summed: Counter = Counter()
        for line in lines:
            author, owner, count = line.split("\t")
            summed[author, owner] += int(count)
        records = [json.loads(line) for line in posts.decode("utf-8").splitlines()]
        assert summed == Counter(
            (r["author"], r["page_owner"])
            for r in records
            if not r["mass_message"] and r["author"] != r["page_owner"]
        )
        # Lines are per page: an owner's archive pages repeat its pairs.
        assert (len(lines) > len(summed)) == multichunk

    def test_interaction_lines_per_page_in_order_of_first_post(self):
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
        lines = [
            json.dumps({"title": "User talk:Owner", "wikitext": owner_page}) + "\n",
            json.dumps({"title": "User talk:Cal", "wikitext": "Hey [[User:Bea]] "
                        "09:00, 1 May 2021 (UTC)\n"}) + "\n",
        ]
        _, interactions, pages, posts, skipped = pipeline._parse_talk_chunk(
            ["MediaWiki message delivery"], ["Message sent by User:"], (1, lines)
        )
        assert (pages, posts, skipped) == (2, 6, [])
        assert interactions == "Cal\tOwner\t2\nBea\tOwner\t1\nBea\tCal\t1\n"

    def test_dead_worker_fails_parse_instead_of_hanging(self, tmp_path, monkeypatch):
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        parse_on(POOLED, config, monkeypatch)
        before = parse_outputs(config)
        # Workers fork from this process, so they inherit the patch.
        monkeypatch.setattr(pipeline, "parse_talk_page", lambda *a, **k: os._exit(9))

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
        out = seed_workdir(config)
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

    def test_one_cpu_parses_in_this_process(self, tmp_path, monkeypatch):
        # Profilers and the benchmark's hooks see the parser only on this route.
        config = miniwiki_config(tmp_path)
        seed_workdir(config)
        calls = []
        parse = pipeline.parse_talk_page
        monkeypatch.setattr(
            pipeline, "parse_talk_page", lambda *a, **k: calls.append(1) or parse(*a, **k)
        )
        parse_on(POOLED, config, monkeypatch)
        assert calls == []
        parse_on(IN_PROCESS, config, monkeypatch)
        assert len(calls) == 93

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
        # One file per cached response, and no leftover temporary file.
        digests = {
            hashlib.sha256(canonical_request(config.api_base_url, params).encode()).hexdigest()
            for params in session.calls
        }
        assert len(digests) == len(session.calls)
        assert sorted(p.name for p in Path(config.cache_dir).iterdir()) == sorted(
            f"{digest}.entry" for digest in digests
        )
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

    def test_offline_ingest_replays_a_two_file_cache(self, tmp_path):
        config = self.make_config(tmp_path)
        session = RoutingSession(MiniwikiApi())
        stage_ingest(config, MediaWikiClient(config, session=session, sleep=lambda s: None))
        ingest_outputs = ["project_pages.jsonl", "talk_pages.jsonl", "assessments.csv",
                          "fetch_manifest.json"]
        cold = {name: (Path(config.output_dir) / name).read_bytes() for name in ingest_outputs}
        # Rewrite the whole cache in the layout earlier versions wrote.
        for path in Path(config.cache_dir).glob("*.entry"):
            header, payload = path.read_bytes().split(b"\n", 1)
            meta = json.loads(header)
            write_legacy_cache_entry(config.cache_dir, meta["key"], meta["fetched_at"], payload)
            path.unlink()
        assert not list(Path(config.cache_dir).glob("*.entry"))

        config.output_dir = str(tmp_path / "replay")
        config.offline = True
        broken = RoutingSession(lambda params: (_ for _ in ()).throw(AssertionError("network")))
        stage_ingest(config, MediaWikiClient(config, session=broken))
        assert broken.calls == []
        for name, payload in cold.items():
            assert (Path(config.output_dir) / name).read_bytes() == payload
        assert not list(Path(config.cache_dir).glob("*.entry"))

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
