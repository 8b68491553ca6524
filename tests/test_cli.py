import json
import os
import pkgutil
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import wikicomm
import wikicomm.pipeline as pipeline
from wikicomm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NETWORK, main
from wikicomm.client import MediaWikiClient
from wikicomm.config import PipelineConfig
from wikicomm.pipeline import stage_ingest

from fakes import INGEST_OUTPUTS, MiniwikiApi, RoutingSession, seed_workdir, write_config
from test_benchmark_hooks import RETIRED, tracer  # noqa: F401 (a fixture)


class TestExitCodes:
    def test_successful_offline_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        seed_workdir(tmp_path / "out")
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

    def test_ingest_without_projects_is_2(self, tmp_path, capsys):
        # Offline without pre-seeded inputs, ingest needs the project list.
        config = write_config(tmp_path, projects=[])
        assert main(["--config", str(config), "--offline", "ingest"]) == EXIT_CONFIG
        assert "config lists no projects" in capsys.readouterr().err

    def test_unmapped_failure_is_1_and_names_the_stage(self, tmp_path, monkeypatch, capsys):
        def fail(config):
            raise RuntimeError("unexpected")

        monkeypatch.setitem(pipeline.STAGES, "quality", fail)
        config = write_config(tmp_path)
        assert main(["--config", str(config), "--offline", "quality"]) == 1
        assert "error: stage 'quality' failed: unexpected" in capsys.readouterr().err

    def test_offline_cache_miss_is_3(self, tmp_path):
        config = write_config(tmp_path)
        # No seeded inputs and an empty cache: ingest cannot proceed offline.
        assert main(["--config", str(config), "--offline", "ingest"]) == EXIT_NETWORK

    def test_missing_stage_input_is_4(self, tmp_path):
        config = write_config(tmp_path)
        (tmp_path / "out").mkdir(parents=True)
        assert main(["--config", str(config), "--offline", "regress"]) == EXIT_DATA

    # A string is not a member list, a member name is a string, and the file
    # maps projects to member lists.
    @pytest.mark.parametrize("members, named", [
        ({"P": "Alice Bob"}, "project 'P'"),
        ({"P": ["Alice", 7]}, "project 'P'"),
        (["Alice", "Bob"], "must map each project"),
    ], ids=["string_list", "non_string_name", "not_an_object"])
    def test_members_json_of_the_wrong_shape_is_4(self, tmp_path, capsys, members, named):
        config = write_config(tmp_path)
        seed_workdir(tmp_path / "out")
        offline = ["--config", str(config), "--offline"]
        for verb in ["ingest", "parse", "build"]:
            assert main(offline + [verb]) == 0, verb
        out = tmp_path / "out"

        def built():
            return {p: p.read_bytes() for p in [out / "projects.csv", *out.glob("networks*/*")]}

        before = built()
        (out / "members.json").write_text(json.dumps(members))
        capsys.readouterr()
        assert main(offline + ["build"]) == EXIT_DATA
        assert named in capsys.readouterr().err
        assert built() == before

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
        seed_workdir(tmp_path / "out")
        for verb in ["ingest", "parse", "build", "quality", "metrics", "regress", "report"]:
            assert main(["--config", str(config), "--offline", verb]) == 0, verb
        out = capsys.readouterr().out
        assert "report: done" in out

    def test_cache_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path)
        seed_workdir(tmp_path / "out")
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
DROPPED = ("click", "numpy")


def test_offline_run_loads_no_http_stack(tmp_path):
    # Only what the import and the run add counts: a site hook may load some
    # of these modules when the interpreter starts. numpy loads neither on
    # import nor in the run.
    config = write_config(tmp_path)
    seed_workdir(tmp_path / "out")
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
    assert result.stdout.strip().splitlines()[-2:] == ["[]", "False False False"]
    assert (tmp_path / "out" / "report.json").exists()


# The analysis layers: every module but the command line, the crawler, the
# configuration, the stages and the parser, which every command may load.
LAYERS = tuple(
    f"wikicomm.{info.name}" for info in pkgutil.iter_modules(wikicomm.__path__)
    if info.name not in {"cli", "client", "config", "pipeline", "wikitext"}
)


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
    # import, ingest, parse, --help and report load none; run loads them all.
    assert loaded == [[], [], [], [], [], sorted(LAYERS)]


def test_stages_call_every_hooked_name(tmp_path, monkeypatch, tracer):
    # The benchmark's tracer times a layer by wrapping its names in
    # wikicomm.pipeline; a name that still resolves but that no stage calls
    # would read zero. With one CPU the parse runs in process, so that the
    # wrapped extract_project_members is the one called.
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
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    config = write_config(tmp_path)
    seed_workdir(tmp_path / "out")
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
    def test_every_command_runs_without_numpy(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        seed_workdir(tmp_path / "out")
        assert main(["--config", str(config), "--offline", "run"]) == 0
        expected = output_files(out)
        for commands in (["ingest", "parse", "build", "quality", "metrics", "regress", "report"],
                         ["run"]):
            shutil.rmtree(out)
            seed_workdir(tmp_path / "out")
            for command in commands:
                result = run_without_numpy(config, command)
                assert result.returncode == 0, (command, result.stderr)
            assert output_files(out) == expected, commands

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
