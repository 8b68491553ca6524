import contextlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import wikicomm
import wikicomm.pipeline as pipeline
from wikicomm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NETWORK, main
from wikicomm.client import MediaWikiClient
from wikicomm.config import PipelineConfig
from wikicomm.pipeline import stage_ingest

from fakes import RoutingSession
from test_benchmark_hooks import RETIRED, tracer  # noqa: F401 (a fixture)
from test_pipeline import INGEST_OUTPUTS, MiniwikiApi

MINIWIKI = Path(__file__).parent / "fixtures" / "miniwiki"


def write_config(tmp_path, **overrides) -> Path:
    config = json.loads((MINIWIKI / "config.json").read_text())
    config["output_dir"] = str(tmp_path / "out")
    config["cache_dir"] = str(tmp_path / "cache")
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def seed(tmp_path) -> None:
    out = tmp_path / "out"
    out.mkdir(parents=True, exist_ok=True)
    for name in ["project_pages.jsonl", "talk_pages.jsonl", "assessments.csv"]:
        shutil.copy(MINIWIKI / name, out / name)


class TestExitCodes:
    def test_successful_offline_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        seed(tmp_path)
        code = main(["--config", str(config), "--offline", "run"])
        assert code == 0
        assert "report.txt" in capsys.readouterr().out
        assert (tmp_path / "out" / "report.json").exists()

    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"request_interval": 0}')
        assert main(["--config", str(bad), "run"]) == EXIT_CONFIG

    def test_unreadable_config_is_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "none.json"), "run"]) == EXIT_CONFIG

    def test_offline_cache_miss_is_3(self, tmp_path):
        config = write_config(tmp_path)
        # No seeded inputs and an empty cache: ingest cannot proceed offline.
        assert main(["--config", str(config), "--offline", "ingest"]) == EXIT_NETWORK

    def test_missing_stage_input_is_4(self, tmp_path):
        config = write_config(tmp_path)
        (tmp_path / "out").mkdir(parents=True)
        assert main(["--config", str(config), "--offline", "regress"]) == EXIT_DATA

    def test_data_invariant_violation_is_4(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir(parents=True)
        header = (
            "project,member_count,active_nodes,fraction,det_norm,deg_norm,ei_norm,"
            "avg_strength,n_articles,n_quality,q_score\n"
        )
        for rows in [
            "P,5,5,1.0,0.5,0.1,0.4,0.0,4,2,1.0\n",  # zero strength breaks the log
            "P,5,5,1.0,0.5,0.1,0.4,2.0,4,2,1.0\nQ,6,5,0.8,high,0.1,0.4,2.0,4,2,1.0\n",
        ]:
            (out / "variables.csv").write_text(header + rows)
            assert main(["--config", str(config), "--offline", "regress"]) == EXIT_DATA


class TestCliSurface:
    def test_stage_verbs_exist(self, tmp_path, capsys):
        config = write_config(tmp_path)
        seed(tmp_path)
        for verb in ["ingest", "parse", "build", "quality", "metrics", "regress", "report"]:
            assert main(["--config", str(config), "--offline", verb]) == 0, verb
        out = capsys.readouterr().out
        assert "report: done" in out

    def test_cache_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path)
        seed(tmp_path)
        custom_cache = tmp_path / "elsewhere"
        code = main(
            ["--config", str(config), "--cache", str(custom_cache), "--offline", "parse"]
        )
        assert code == 0

    def test_help_and_version(self, capsys):
        assert main(["--help"]) == 0
        assert "ingest" in capsys.readouterr().out
        assert main(["--version"]) == 0
        assert "wikicomm" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, tmp_path):
        assert main(["launch"]) == 2
        assert main([]) == 2


HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna", "certifi", "ssl", "http.client")
# Packages the program no longer depends on: importing one again would
# bring back a dependency that pyproject.toml does not declare.
DROPPED = ("click",)


def test_offline_run_loads_no_http_stack(tmp_path):
    # Only what the import and the run add counts: a site hook may load some
    # of these modules when the interpreter starts. numpy loads in the run,
    # not on import, and numpy.ma never.
    config = write_config(tmp_path)
    seed(tmp_path)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import wikicomm.cli\n"
        "on_import = set(sys.modules) - before\n"
        f"assert wikicomm.cli.main(['--config', {str(config)!r}, '--offline', 'run']) == 0\n"
        "added = set(sys.modules) - before\n"
        f"stack = {HTTP_STACK + DROPPED!r}\n"
        "print(sorted(m for m in added if m in stack or m.startswith(tuple(p + '.' for p in stack))))\n"
        "print('numpy' in on_import, 'numpy' in added, 'numpy.ma' in added)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wikicomm.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip().splitlines()[-2:] == ["[]", "False True False"]
    assert (tmp_path / "out" / "report.json").exists()


LAYERS = ("wikicomm.graph", "wikicomm.network", "wikicomm.quality", "wikicomm.stats",
          "wikicomm.special", "wikicomm.report")


def test_commands_load_only_the_layers_they_call(tmp_path):
    # One fresh interpreter runs the commands in turn and prints the layer
    # modules loaded so far after each: ingest replays a warm cache.
    config_path = write_config(tmp_path, request_interval=0.001)
    config = PipelineConfig.from_file(config_path)
    session = RoutingSession(MiniwikiApi())
    stage_ingest(config, MediaWikiClient(config, session=session, sleep=lambda s: None))
    for name in INGEST_OUTPUTS:
        (tmp_path / "out" / name).unlink()
    offline = ["--config", str(config_path), "--offline"]
    steps = [
        offline + ["ingest"], offline + ["parse"], ["--help"], offline + ["report"], offline + ["run"]
    ]
    code = (
        "import json, sys\n"
        "import wikicomm.cli\n"
        f"layers = lambda: sorted(m for m in sys.modules if m in {LAYERS!r})\n"
        "loaded = [layers()]\n"
        f"for argv in {steps!r}:\n"
        "    assert wikicomm.cli.main(argv) == 0, argv\n"
        "    loaded.append(layers())\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wikicomm.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    # import, ingest, parse, --help and report load none; run loads all six.
    assert loaded == [[], [], [], [], [], sorted(LAYERS)]


def test_stages_call_every_hooked_name(tmp_path, monkeypatch, tracer):
    # The benchmark's tracer times a layer by wrapping its names in
    # wikicomm.pipeline; a name that still resolves but that no stage calls
    # would read zero. The parse pool runs in process so that the wrapped
    # extract_project_members is the one called.
    hooked = [attr for path, attr, _ in tracer.LAYER_HOOKS
              if path == "wikicomm.pipeline" and f"{path}.{attr}" not in RETIRED]
    assert hooked
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in hooked:
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    monkeypatch.setattr(pipeline, "_parse_pool", lambda: contextlib.nullcontext(map))
    config = write_config(tmp_path)
    seed(tmp_path)
    assert main(["--config", str(config), "--offline", "run"]) == 0
    assert sorted(calls) == sorted(hooked)
    # The calls whose number the stages fix, whatever the input.
    fixed = {name: n for name, n in
             {"ols_fit": 3, "nested_f_test": 1, "linear_hypothesis": 1, "pearson_r": 1}.items()
             if name in hooked}
    assert {name: calls[name] for name in fixed} == fixed


def run_without_numpy(config: Path, command: str) -> subprocess.CompletedProcess:
    """``wikicomm --offline <command>`` in a fresh interpreter where ``import numpy`` fails."""
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import wikicomm.cli\n"
        f"sys.exit(wikicomm.cli.main(['--config', {str(config)!r}, '--offline', {command!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wikicomm.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def output_files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


class TestNumpyLoadsOnlyWhereUsed:
    def test_stages_that_do_not_compute_run_without_numpy(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        seed(tmp_path)
        assert main(["--config", str(config), "--offline", "run"]) == 0
        expected = output_files(out)
        shutil.rmtree(out)
        seed(tmp_path)
        for command in ["ingest", "parse", "build"]:
            result = run_without_numpy(config, command)
            assert result.returncode == 0, (command, result.stderr)
        result = run_without_numpy(config, "quality")
        assert result.returncode == 1
        # A host without numpy reads "No module named 'numpy'" after the colon.
        assert result.stderr.startswith("error: stage 'quality' failed: ")
        assert "numpy" in result.stderr
        for command in ["quality", "metrics", "regress"]:
            assert main(["--config", str(config), "--offline", command]) == 0
        result = run_without_numpy(config, "report")
        assert result.returncode == 0, result.stderr
        assert output_files(out) == expected

    def test_offline_replay_of_a_warm_cache_runs_without_numpy(self, tmp_path):
        config_path = write_config(tmp_path, request_interval=0.001)
        config = PipelineConfig.from_file(config_path)
        session = RoutingSession(MiniwikiApi())
        stage_ingest(config, MediaWikiClient(config, session=session, sleep=lambda s: None))
        out = tmp_path / "out"
        cold = {name: (out / name).read_bytes() for name in INGEST_OUTPUTS}
        for name in INGEST_OUTPUTS:
            (out / name).unlink()
        result = run_without_numpy(config_path, "ingest")
        assert result.returncode == 0, result.stderr
        assert {name: (out / name).read_bytes() for name in INGEST_OUTPUTS} == cold
