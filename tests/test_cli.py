import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import wikicomm
from wikicomm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NETWORK, main

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
        (out / "variables.csv").write_text(
            "project,member_count,active_nodes,fraction,det_norm,deg_norm,ei_norm,"
            "avg_strength,n_articles,n_quality,q_score\n"
            "P,5,5,1.0,0.5,0.1,0.4,0.0,4,2,1.0\n"  # zero strength breaks the log
        )
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


HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna", "certifi", "ssl", "http.client")


def test_offline_run_loads_no_http_stack(tmp_path):
    # Only what the import and the run add counts: a site hook may load some
    # of these modules when the interpreter starts.
    config = write_config(tmp_path)
    seed(tmp_path)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import wikicomm.cli\n"
        f"assert wikicomm.cli.main(['--config', {str(config)!r}, '--offline', 'run']) == 0\n"
        "added = set(sys.modules) - before\n"
        f"stack = {HTTP_STACK!r}\n"
        "print(sorted(m for m in added if m in stack or m.startswith(tuple(p + '.' for p in stack))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wikicomm.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "report.json").exists()
