"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import csv
import json
import math
import random
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from wikicomm.config import PipelineConfig
from wikicomm.graph import effective_information
from wikicomm.pipeline import REFERENCE_SNAPSHOT_ANCHORS, STAGE_ORDER, run_stage
from wikicomm.quality import q_score
from wikicomm.stats import linear_hypothesis, nested_f_test, ols_fit
from wikicomm.wikitext import talk_page_owner

from oracles import (
    direct_structure_metrics,
    ols_normal_equations,
    parse_talk_page,
    posts_to_records,
    summed_rows,
)

FIXTURES = Path(__file__).parent / "fixtures"
MINIWIKI = FIXTURES / "miniwiki"
GOLDEN = MINIWIKI / "golden"


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE FAIL: {name}")
        raise
    print(f"\nACCEPTANCE PASS: {name}")


Edges = list[tuple[str, str, int]]


def random_graph(rng: random.Random) -> Edges:
    n = rng.randint(2, 12)
    names = [f"v{i}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    count = rng.randint(1, len(pairs))
    return summed_rows((u, v, rng.randint(1, 10)) for u, v in rng.sample(pairs, count))


def ring(n: int) -> Edges:
    return summed_rows((f"n{i}", f"n{(i + 1) % n}", 1) for i in range(n))


def star(n: int) -> Edges:
    return summed_rows(("hub", f"leaf{i}", 1) for i in range(n - 1))


def test_metric_oracle_equivalence_on_200_random_graphs():
    with criterion(
        "determinism/degeneracy match the direct-from-definition oracle "
        "on 200 random graphs (n in [2,12], weights 1-10) within 1e-9, in < 5 s"
    ):
        rng = random.Random(20210211)
        started = time.monotonic()
        for _ in range(200):
            edges = random_graph(rng)
            det_expected, deg_expected, n_expected = direct_structure_metrics(
                {(u, v): w for u, v, w in edges}
            )
            metrics = effective_information(edges)
            assert abs(metrics.determinism_bits - det_expected) < 1e-9
            assert abs(metrics.degeneracy_bits - deg_expected) < 1e-9
            assert metrics.active_n == n_expected
        assert time.monotonic() - started < 5.0


def test_analytic_graph_cases():
    with criterion(
        "analytic cases: Det(K4) = 2 - log2(3), Deg(K4) = 0, EI(two-node) = 1 bit, "
        "Deg(ring) = 0, all within 1e-12"
    ):
        k4 = [(u, v, 1) for i, u in enumerate("abcd") for v in "abcd"[i + 1 :]]
        assert abs(effective_information(k4).determinism_bits - (2 - math.log2(3))) <= 1e-12
        assert abs(effective_information(k4).degeneracy_bits) <= 1e-12
        two = [("x", "y", 1)]
        assert abs(effective_information(two).effective_information_bits - 1.0) <= 1e-12
        for n in (3, 4, 5, 8, 16, 33, 64):
            assert abs(effective_information(ring(n)).degeneracy_bits) <= 1e-12


def test_degeneracy_contrast_star_vs_ring():
    with criterion(
        "for every n in 4..64: Deg(star) > Deg(ring) and EI(ring) > EI(star)"
    ):
        for n in range(4, 65):
            ring_metrics = effective_information(ring(n))
            star_metrics = effective_information(star(n))
            assert star_metrics.degeneracy_bits > ring_metrics.degeneracy_bits, n
            assert (
                ring_metrics.effective_information_bits
                > star_metrics.effective_information_bits
            ), n


def test_parser_golden_corpus():
    with criterion(
        "parsed (author, timestamp, thread) records match the annotated corpus "
        "exactly (100%, >= 30 cases)"
    ):
        pages = []
        with open(FIXTURES / "corpus" / "pages.jsonl", encoding="utf-8") as f:
            pages = [json.loads(line) for line in f if line.strip()]
        with open(FIXTURES / "corpus" / "expected_posts.jsonl", encoding="utf-8") as f:
            expected = [json.loads(line) for line in f if line.strip()]
        extracted = []
        for raw in pages:
            threads = parse_talk_page(raw["wikitext"])
            extracted.extend(posts_to_records(talk_page_owner(raw["title"]), threads))
        assert len(expected) >= 30
        assert extracted == expected


def test_quality_score_family():
    with criterion(
        "Q_p decreases strictly in p over a 1,000-case sweep; Q_0, Q_1/2, Q_1 "
        "match direct arithmetic within 1e-12"
    ):
        rng = random.Random(652)
        grid = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]
        for _ in range(1000):
            n_articles = rng.randint(2, 50_000)
            n_quality = rng.randint(1, n_articles)
            values = [q_score(n_quality, n_articles, p) for p in grid]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert abs(values[0] - n_quality) <= 1e-12 * n_quality
            assert abs(values[3] - n_quality / math.sqrt(n_articles)) <= 1e-12
            assert abs(values[-1] - n_quality / n_articles) <= 1e-12


def test_regression_oracle_and_type_i_calibration():
    with criterion(
        "OLS matches the normal-equations oracle on a 50-row planted dataset "
        "within 1e-8; nested-F and linear-hypothesis rejection rates at "
        "alpha=.05 lie in [.03, .07] over 1,000 replicates"
    ):
        rng = np.random.default_rng(59_66)
        x1, x2, x3 = rng.normal(size=(3, 50))
        y = 0.5 + 0.3 * x1 - 0.7 * x2 + 1.3 * x3 + 0.1 * rng.normal(size=50)
        data = {"x1": x1, "x2": x2, "x3": x3, "y": y}
        fit = ols_fit(data, "y", ["x1", "x2", "x3"])
        design = np.column_stack([np.ones(50), x1, x2, x3])
        beta, se, _, _, _ = ols_normal_equations(design, y)
        for i, name in enumerate(["const", "x1", "x2", "x3"]):
            assert abs(fit.coefficients[name] - beta[i]) < 1e-8
            assert abs(fit.standard_errors[name] - se[i]) < 1e-8

        nested_rejections = 0
        hypothesis_rejections = 0
        reps, n = 1000, 60
        for _ in range(reps):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            noise_column = rng.normal(size=n)
            response = 1.0 + 0.6 * a - 0.4 * b + rng.normal(size=n)
            columns = {"a": a, "b": b, "noise": noise_column, "y": response}
            full = ols_fit(columns, "y", ["a", "b", "noise"])
            reduced = ols_fit(columns, "y", ["a", "b"])
            if nested_f_test(full, reduced).p_value < 0.05:
                nested_rejections += 1

            slope = rng.normal() * 0.7
            balanced = slope * a - slope * b + rng.normal(size=n)
            pair_fit = ols_fit({"a": a, "b": b, "y": balanced}, "y", ["a", "b"])
            if linear_hypothesis(pair_fit, [0.0, 1.0, 1.0], 0.0).p_value < 0.05:
                hypothesis_rejections += 1
        assert 0.03 <= nested_rejections / reps <= 0.07
        assert 0.03 <= hypothesis_rejections / reps <= 0.07


def run_miniwiki(tmp_path) -> Path:
    config = PipelineConfig.from_file(MINIWIKI / "config.json")
    config.output_dir = str(tmp_path / "out")
    config.cache_dir = str(tmp_path / "cache")
    config.offline = True
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ["project_pages.jsonl", "talk_pages.jsonl", "assessments.csv"]:
        shutil.copy(MINIWIKI / name, out / name)
    for stage in STAGE_ORDER:
        run_stage(stage, config)
    return out


def test_end_to_end_golden_run(tmp_path):
    with criterion(
        "the bundled mini-wiki reproduces the hand-computed networks, variables "
        "CSV, and regression report byte-for-byte, offline, in < 10 s"
    ):
        started = time.monotonic()
        out = run_miniwiki(tmp_path)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        for golden_path in sorted(GOLDEN.rglob("*")):
            if not golden_path.is_file():
                continue
            rel = golden_path.relative_to(GOLDEN)
            assert (out / rel).read_bytes() == golden_path.read_bytes(), rel

        # The frozen regression report is re-derived here from the variables
        # CSV through the independent normal-equations oracle.
        report = json.loads((out / "report.json").read_text())
        with open(out / "variables.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        columns = {
            key: np.array([float(row[key]) for row in rows])
            for key in rows[0]
            if key != "project"
        }
        columns["quality_log"] = np.log(columns["q_score"])
        columns["strength_log"] = np.log(columns["avg_strength"])
        columns["members_log"] = np.log(columns["member_count"])
        response = columns["quality_log"]
        model_predictors = {
            "model_1": ["fraction", "det_norm", "deg_norm", "strength_log", "members_log"],
            "model_2": ["det_norm", "deg_norm", "strength_log", "members_log"],
            "model_3": ["ei_norm", "strength_log", "members_log"],
        }
        for model, predictors in model_predictors.items():
            design = np.column_stack(
                [np.ones(len(response))] + [columns[p] for p in predictors]
            )
            beta, se, r2, _, _ = ols_normal_equations(design, response)
            summary = report["models"][model]
            for i, name in enumerate(["const", *predictors]):
                assert abs(summary["coefficients"][name] - beta[i]) < 1e-8
                assert abs(summary["standard_errors"][name] - se[i]) < 1e-8
            assert abs(summary["r_squared"] - r2) < 1e-10


def test_full_scale_contract_and_reference_anchors(tmp_path):
    with criterion(
        "full-scale reference anchors are recorded and labeled; desk-scale "
        "bundles are marked not comparable; the report carries the three-model "
        "format the anchors describe"
    ):
        anchors = REFERENCE_SNAPSHOT_ANCHORS
        assert anchors["networks_before_filtering"] == 1625
        assert anchors["networks_after_filtering"] == 997
        assert anchors["fa_ga_pearson_r"] == 0.92
        assert anchors["variables"]["quality"] == {
            "mean": 1.172, "sd": 1.684, "median": 0.652,
        }
        assert anchors["variables"]["strength"]["median"] == 17.143
        assert anchors["model_1"] == {"r_squared": 0.231, "f": 59.66, "df": [5, 991]}

        out = run_miniwiki(tmp_path)
        bundle = json.loads((out / "bundle_meta.json").read_text())
        assert bundle["anchors_comparable"] is False
        assert bundle["reference_anchors"] == anchors
        assert bundle["observations"] == 14

        report = json.loads((out / "report.json").read_text())
        assert set(report["models"]) == {"model_1", "model_2", "model_3"}
        assert "nested_test_fraction_dropped" in report
        assert "linear_hypothesis_det_plus_deg_zero" in report
        for field in ("coefficients", "standard_errors", "r_squared", "f_df"):
            assert field in report["models"]["model_1"]
