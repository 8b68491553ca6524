"""Output checks: every measured run is compared with the corpus plan.

Expected networks come from the plan's ``(sender, owner, mass_message)``
posts, the walk metrics from the test suite's per-node oracle
(``tests/oracles.py``) over those edges, and the regression from
``numpy.linalg.lstsq`` on the run's own ``variables.csv``. Nothing here calls
the package under test.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from oracles import direct_structure_metrics

from corpus import Corpus

MODELS = {
    "model_1": ["fraction", "det_norm", "deg_norm", "strength_log", "members_log"],
    "model_2": ["det_norm", "deg_norm", "strength_log", "members_log"],
    "model_3": ["ei_norm", "strength_log", "members_log"],
}
FLOAT_TOL = 2e-6  # variables.csv prints six decimals
REL_TOL = 1e-6


class Expected:
    """What a correct run writes for one corpus, derived from its plan."""

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        projects_of: dict[str, set[str]] = {}
        for project, roster in corpus.members.items():
            for user in roster:
                projects_of.setdefault(user, set()).add(project)
        networks: dict[str, Counter] = {p: Counter() for p in corpus.projects}
        for sender, owner, mass in corpus.posts:
            if mass or sender == owner:
                continue
            shared = projects_of.get(sender, set()) & projects_of.get(owner, set())
            key = (sender, owner) if sender <= owner else (owner, sender)
            for project in shared:
                networks[project][key] += 1

        self.edge_files: dict[str, str] = {}
        self.variables: dict[str, dict[str, float]] = {}
        summary = ["project,member_count,active_nodes,fraction_in_network"]
        for project in corpus.projects:
            edges = networks[project]
            roster = corpus.members[project]
            active = {u for pair in edges for u in pair}
            lines = [f"{u}\t{v}\t{w}\n" for (u, v), w in sorted(edges.items())]
            lines += [f"{m}\t0\n" for m in roster if m not in active]
            self.edge_files[project] = "".join(lines)
            fraction = len(active) / len(roster)
            summary.append(f"{project},{len(roster)},{len(active)},{fraction:.6f}")
            n_articles, n_quality = corpus.quality[project]
            if len(active) < corpus.config["min_active_nodes"] or n_quality < 1:
                continue
            det, deg, n = direct_structure_metrics(edges)
            log_n = math.log2(n)
            self.variables[project] = {
                "member_count": len(roster), "active_nodes": len(active),
                "fraction": fraction, "det_norm": det / log_n, "deg_norm": deg / log_n,
                "ei_norm": (det - deg) / log_n, "avg_strength": 2 * sum(edges.values()) / n,
                "n_articles": n_articles, "n_quality": n_quality,
                "q_score": n_quality / math.sqrt(n_articles),
            }
        self.projects_csv = "\n".join(summary) + "\n"
        self.edge_count = sum(len(n) for n in networks.values())

    # -- offline run ----------------------------------------------------------

    def check_run(self, out: Path) -> list[str]:
        """Failures of one offline run whose outputs are in ``out``."""
        errors = []
        if _read(out / "projects.csv") != self.projects_csv:
            errors.append("projects.csv differs from the plan")
        for project, text in self.edge_files.items():
            if _read(out / "networks" / f"{project.replace(' ', '_')}.edges") != text:
                errors.append(f"edge list of {project!r} differs from the plan")
                break
        errors += self._check_variables(out / "variables.csv")
        if not errors:
            errors += _check_report(out / "variables.csv", out / "report.json")
        return errors

    def _check_variables(self, path: Path) -> list[str]:
        try:
            with open(path, encoding="utf-8", newline="") as f:
                rows = {row["project"]: row for row in csv.DictReader(f)}
        except (OSError, KeyError) as exc:
            return [f"variables.csv unreadable: {exc}"]
        if list(rows) != list(self.variables):
            return [f"variables.csv keeps {len(rows)} projects, plan keeps {len(self.variables)}"]
        for project, want in self.variables.items():
            for column, value in want.items():
                got = float(rows[project][column])
                if abs(got - value) > FLOAT_TOL * max(1.0, abs(value)):
                    return [f"variables.csv {project!r} {column}: {got} != {value}"]
        return []

    # -- crawl --------------------------------------------------------------

    def check_crawl(self, cold: Path, warm: Path) -> list[str]:
        """Cold and replayed ingest outputs: byte-identical and equal to the dumps."""
        errors = []
        for name in ("project_pages.jsonl", "talk_pages.jsonl", "assessments.csv",
                     "fetch_manifest.json"):
            a, b = cold / name, warm / name
            if not a.exists() or not b.exists() or a.read_bytes() != b.read_bytes():
                errors.append(f"cold and replayed {name} differ")
        if errors:
            return errors
        corpus = self.corpus
        got_projects = sorted(_jsonl(cold / "project_pages.jsonl"), key=_page_key)
        if got_projects != sorted(corpus.project_pages, key=_page_key):
            errors.append("project_pages.jsonl records differ from the dumps")
        got_talk = {r["title"]: r["wikitext"] for r in _jsonl(cold / "talk_pages.jsonl")}
        if got_talk != {r["title"]: r["wikitext"] for r in corpus.talk_pages}:
            errors.append("talk_pages.jsonl records differ from the dumps")
        with open(cold / "assessments.csv", encoding="utf-8", newline="") as f:
            rows = [tuple(r) for r in csv.reader(f)][1:]
        if sorted(rows) != sorted(corpus.assessments):
            errors.append("assessments.csv rows differ from the dumps")
        return errors


def _check_report(variables: Path, report_path: Path) -> list[str]:
    """Compare report.json numerically with lstsq fits on variables.csv."""
    with open(variables, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    col = {name: np.array([float(r[name]) for r in rows])
           for name in rows[0] if name != "project"}
    col["strength_log"] = np.log(col["avg_strength"])
    col["members_log"] = np.log(col["member_count"])
    y = np.log(col["q_score"])
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    fits = {}
    for model, predictors in MODELS.items():
        x = np.column_stack([np.ones(len(y))] + [col[p] for p in predictors])
        beta, rss, _, _ = np.linalg.lstsq(x, y, rcond=None)
        fits[model] = (x, beta, float(rss[0]))
        got = report["models"][model]
        if got["predictors"] != predictors or got["n"] != len(y):
            return [f"report.json {model}: wrong predictors or n"]
        want = dict(zip(["const", *predictors], beta))
        tss = float(((y - y.mean()) ** 2).sum())
        want_r2 = 1.0 - fits[model][2] / tss
        for name, value in [*want.items(), ("r_squared", want_r2)]:
            have = got["r_squared"] if name == "r_squared" else got["coefficients"][name]
            if not math.isclose(have, value, rel_tol=REL_TOL, abs_tol=1e-9):
                return [f"report.json {model} {name}: {have} != {value}"]
    x1, beta1, rss1 = fits["model_1"]
    df = len(y) - x1.shape[1]
    f_drop = (fits["model_2"][2] - rss1) / (rss1 / df)
    x2, beta2, rss2 = fits["model_2"]
    weights = np.zeros(x2.shape[1])
    weights[1:3] = 1.0  # det_norm + deg_norm
    variance = rss2 / (len(y) - x2.shape[1]) * weights @ np.linalg.inv(x2.T @ x2) @ weights
    f_sum = float(weights @ beta2) ** 2 / variance
    for key, value in (("nested_test_fraction_dropped", f_drop),
                       ("linear_hypothesis_det_plus_deg_zero", f_sum)):
        have = report[key]["f_value"]
        if not math.isclose(have, value, rel_tol=REL_TOL, abs_tol=1e-9):
            return [f"report.json {key}: {have} != {value}"]
    return []


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _page_key(record: dict) -> tuple[str, str]:
    return record["project"], record["title"]
