"""End-to-end stage orchestration: ingest → parse → build → quality → metrics → regress.

Every stage reads its inputs from files under the output directory and
rewrites its outputs deterministically, so a run over an unchanged cache is
byte-identical and any stage can be rerun in isolation. A stage failure
halts the run with the stage name; everything already fetched stays cached.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import logging
import math
import os
from collections import defaultdict, deque
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence

from . import __version__
from .client import MediaWikiClient
from .config import ConfigError, PipelineConfig, normalize_project_name
from .graph import effective_information, read_edge_list, write_edge_list
from .network import (
    ProjectRecord,
    build_networks,
    filter_projects,
    project_record,
    write_project_summary,
)
from .quality import GRADE_RANK, Grade, q_score, read_assessments_csv, write_quality_csv
from .report import (
    REFERENCE_SNAPSHOT_ANCHORS,
    f_test_to_dict,
    fit_to_dict,
    render_coefficient_table,
    round_significant,
)
from .stats import (
    DataMatrix,
    descriptives,
    linear_hypothesis,
    nested_f_test,
    ols_fit,
    pearson_r,
)
from .wikitext import (
    TalkPage,
    extract_project_members,
    parse_talk_page,
    posts_to_records,
    read_pages_jsonl,
    write_posts_jsonl,
)

__all__ = ["PipelineStageError", "STAGES", "run_stage", "run_pipeline"]

log = logging.getLogger(__name__)

VARIABLE_LABELS = {
    "fraction": "Fraction in communication network",
    "det_norm": "Determinism",
    "deg_norm": "Degeneracy",
    "ei_norm": "Effective information",
    "strength_log": "Average connection strength (log)",
    "members_log": "Number of project members (log)",
    "const": "Constant",
}

# Below this many observations the full-scale reference anchors are not
# comparable and the bundle is labeled accordingly.
ANCHOR_COMPARABLE_MIN_ROWS = 500


class PipelineStageError(Exception):
    """A stage failed; carries the stage name and the original error."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _out(config: PipelineConfig) -> Path:
    path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _slug(project: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in project)


@contextlib.contextmanager
def _replaced_on_success(path: Path) -> Iterator[IO[str]]:
    """A text file that becomes ``path`` only when the block completes.

    Until then ``path`` keeps its old bytes, so a stage that fails midway
    never leaves a truncated output for a later stage to trust.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    with _replaced_on_success(path) as f:
        f.write(text)


def _write_csv(out: IO[str], header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# -- ingest -----------------------------------------------------------------


def stage_ingest(config: PipelineConfig, client: Optional[MediaWikiClient] = None) -> dict:
    """Fetch project pages, member talk pages, and assessments into the work dir."""
    out = _out(config)
    ingest_outputs = ["project_pages.jsonl", "talk_pages.jsonl", "assessments.csv"]
    if config.offline and all((out / name).exists() for name in ingest_outputs):
        log.info("ingest: offline, reusing pre-seeded inputs in %s", out)
        manifest_path = out / "fetch_manifest.json"
        if manifest_path.exists():
            return json.loads(manifest_path.read_text(encoding="utf-8"))
        return {"requests": 0, "earliest_fetch": None, "latest_fetch": None}
    projects = config.canonical_projects()
    if not projects:
        raise ConfigError("config lists no projects; ingest needs an explicit project list")
    client = client or MediaWikiClient(config)

    # The three downloads replace the previous ones together, and only once
    # every fetch has succeeded: a failed crawl leaves the old set whole.
    members_by_project: dict[str, set[str]] = {}
    with _replaced_on_success(out / "project_pages.jsonl") as f_projects, _replaced_on_success(
        out / "talk_pages.jsonl"
    ) as f_talk, _replaced_on_success(out / "assessments.csv") as f_assessments:
        for project in projects:
            pages = []
            titles = [
                f"Wikipedia:WikiProject {project}{subpage}"
                for subpage in config.project_subpages
            ]
            for record in client.fetch_pages(titles, config.user_talk_query):
                pages.append((record["title"], record["wikitext"]))
                f_projects.write(
                    json.dumps(
                        {"project": project, **record}, ensure_ascii=False, sort_keys=True
                    )
                    + "\n"
                )
            members_by_project[project] = extract_project_members(pages)

        all_members = sorted(set().union(*members_by_project.values()))
        for record in client.fetch_user_talk_pages(all_members):
            f_talk.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")

        _write_csv(
            f_assessments,
            ["project", "article", "grade"],
            ([row["project"], row["article"], row["grade"]] for row in client.fetch_assessments()),
        )

    fetched = sorted(ts.isoformat() for ts in client.fetched_at)
    manifest = {
        "requests": len(fetched),
        "earliest_fetch": fetched[0] if fetched else None,
        "latest_fetch": fetched[-1] if fetched else None,
    }
    _write_text(out / "fetch_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    log.info("ingest: %d projects, %d member talk pages", len(projects), len(all_members))
    return manifest


# -- parse ------------------------------------------------------------------

# Characters of page-dump lines per parse task: enough work per task that
# pickling and the round trip to a worker stay small next to the parse, few
# enough that the chunks in flight hold little memory. A chunk ends with the
# line that takes it to this size.
PARSE_CHUNK_CHARS = 1 << 20


@contextlib.contextmanager
def _parse_pool() -> Iterator[Callable]:
    """An order-preserving ``map`` over one worker per CPU this process may use.

    With one CPU it is the builtin ``map``: the work stays in this process,
    where it can be profiled and hooked. A worker that dies (say, killed for
    memory) fails the stage with ``BrokenProcessPool`` instead of hanging it.
    """
    n_cpus = len(os.sched_getaffinity(0))
    if n_cpus == 1:
        yield map
        return
    # Imported here: the process-pool modules would add milliseconds to
    # every ``import wikicomm``.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Fork, because "spawn" re-runs the caller's main module in every
    # worker, which breaks scripts without a ``__main__`` guard. The
    # executor forks all workers at its first submit, before it starts any
    # thread, and the pipeline starts none of its own.
    executor = ProcessPoolExecutor(n_cpus, mp_context=multiprocessing.get_context("fork"))

    def ordered_map(fn: Callable, items: Iterable) -> Iterator:
        # Two tasks per worker in flight: each worker has its next task
        # queued while this process writes results, and at most that many
        # chunks are held in memory.
        pending: deque = deque()
        for item in items:
            pending.append(executor.submit(fn, item))
            if len(pending) == 2 * n_cpus:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        yield ordered_map
    finally:
        executor.shutdown(cancel_futures=True)


def _line_chunks(source: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """``(number of the first line, lines)`` per run of about ``PARSE_CHUNK_CHARS``."""
    lineno = 1
    lines: list[str] = []
    size = 0
    for line in source:
        lines.append(line)
        size += len(line)
        if size >= PARSE_CHUNK_CHARS:
            yield lineno, lines
            lineno += len(lines)
            lines = []
            size = 0
    if lines:
        yield lineno, lines


def _project_members_chunk(chunk: tuple[int, list[str]]) -> dict[str, set[str]]:
    """The members found on a chunk of ``project_pages.jsonl`` lines, per project."""
    first_lineno, lines = chunk
    pages_by_project: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for record in read_pages_jsonl(lines, start=first_lineno):
        pages_by_project[record["project"]].append((record["title"], record["wikitext"]))
    return {
        project: extract_project_members(pages) for project, pages in pages_by_project.items()
    }


def _parse_talk_chunk(
    delivery_agents: Sequence[str], markers: Sequence[str], chunk: tuple[int, list[str]]
) -> tuple[str, str, int, int, list[str]]:
    """Parse a chunk of ``talk_pages.jsonl`` lines.

    Returns the chunk's posts as JSONL text, its interaction lines, its page
    and post counts, and why each skipped record was skipped. A page's
    interaction lines give, per author in order of first appearance, the
    number of its posts outside mass-message threads; the owner's own posts
    are not counted.
    """
    first_lineno, lines = chunk
    text = io.StringIO()
    interactions = []
    n_pages = n_posts = 0
    skipped = []
    for record in read_pages_jsonl(lines, start=first_lineno):
        try:
            page = TalkPage.from_page(record["title"], record["wikitext"])
        except ValueError as exc:
            skipped.append(str(exc))
            continue
        threads = parse_talk_page(page, delivery_agents=delivery_agents, markers=markers)
        n_posts += write_posts_jsonl(posts_to_records(page, threads), text)
        n_pages += 1
        owner = page.owner
        counts: dict[str, int] = {}
        for thread in threads:
            if not thread.is_mass_message:
                for post in thread.posts:
                    if post.author != owner:
                        counts[post.author] = counts.get(post.author, 0) + 1
        interactions.extend(f"{author}\t{owner}\t{n}\n" for author, n in counts.items())
    return text.getvalue(), "".join(interactions), n_pages, n_posts, skipped


def stage_parse(config: PipelineConfig) -> dict:
    """Parse fetched wikitext into member sets, post records and interaction counts.

    The parsing runs on every CPU in the process's affinity mask; the outputs
    are written in input order, so they do not depend on the CPU count.
    """
    out = _out(config)
    parse_chunk = functools.partial(
        _parse_talk_chunk, config.delivery_agents, config.mass_message_markers
    )
    members: dict[str, set[str]] = defaultdict(set)
    n_posts = 0
    n_pages = 0
    skipped = 0
    with _parse_pool() as ordered_map, _replaced_on_success(
        out / "members.json"
    ) as f_members, _replaced_on_success(
        out / "posts.jsonl"
    ) as f_posts, _replaced_on_success(out / "interactions.tsv") as f_interactions:
        with open(out / "project_pages.jsonl", encoding="utf-8") as f_in:
            for found in ordered_map(_project_members_chunk, _line_chunks(f_in)):
                for project, names in found.items():
                    members[project] |= names
        sorted_members = {project: sorted(names) for project, names in members.items()}
        f_members.write(json.dumps(sorted_members, indent=2, sort_keys=True) + "\n")
        with open(out / "talk_pages.jsonl", encoding="utf-8") as f_in:
            for text, interactions, pages, posts, reasons in ordered_map(
                parse_chunk, _line_chunks(f_in)
            ):
                f_posts.write(text)
                f_interactions.write(interactions)
                n_pages += pages
                n_posts += posts
                skipped += len(reasons)
                for reason in reasons:
                    log.warning("skipping non-user-talk record: %s", reason)
    log.info("parse: %d pages -> %d posts (%d records skipped)", n_pages, n_posts, skipped)
    return {"pages": n_pages, "posts": n_posts, "skipped": skipped}


# -- build ------------------------------------------------------------------


def _read_members(out: Path) -> dict[str, list[str]]:
    return json.loads((out / "members.json").read_text(encoding="utf-8"))


def _read_interactions(path: Path) -> Iterator[tuple[str, str, int]]:
    """Stream the ``(author, page_owner, count)`` lines of ``interactions.tsv``."""
    with open(path, encoding="utf-8", newline="") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3 or not parts[2].isdigit():
                raise ValueError(f"{path.name} line {lineno}: malformed line {line!r}")
            yield parts[0], parts[1], int(parts[2])


def stage_build(config: PipelineConfig) -> list[ProjectRecord]:
    """Sum interaction counts into per-project networks, edge lists, and the summary CSV."""
    out = _out(config)
    interactions = out / "interactions.tsv"
    if not interactions.exists():
        # Work dirs parsed by older versions have posts.jsonl but not this file.
        raise FileNotFoundError(f"{interactions} not found; rerun the parse stage")
    members = _read_members(out)
    for project in sorted(members):
        if not members[project]:
            log.warning("project %s has no detected members, skipped", project)
            del members[project]
    networks = build_networks(
        _read_interactions(interactions), members, config.require_both_members
    )

    networks_dir = out / "networks"
    networks_dir.mkdir(exist_ok=True)
    records = []
    slugs: dict[str, str] = {}
    for project in sorted(members):
        slug = _slug(project)
        if slug in slugs.values():
            raise ValueError(f"project slug collision for {project!r}")
        slugs[project] = slug
        with open(networks_dir / f"{slug}.edges", "w", encoding="utf-8") as f:
            write_edge_list(networks[project], f)
        records.append(project_record(project, members[project], networks[project]))
    with _replaced_on_success(out / "projects.csv") as f:
        write_project_summary(records, f)
    log.info("build: %d project networks", len(records))
    return records


# -- quality ----------------------------------------------------------------


def stage_quality(config: PipelineConfig) -> dict[str, tuple[int, int]]:
    """Compute N_Q and Q_p per configured project from the assessment dump.

    One pass over the rows keeps, per project, the best grade rank of each
    article; the per-project counts come from that dict alone.
    """
    out = _out(config)
    wanted = set(config.canonical_projects())
    # Rows far outnumber the distinct raw spellings of project names, so each
    # spelling is normalized once; None marks an unusable name.
    names: dict[str, Optional[str]] = {}
    best: dict[str, dict[str, int]] = defaultdict(dict)
    with open(out / "assessments.csv", encoding="utf-8") as f:
        for raw, article, grade in read_assessments_csv(f):
            if raw in names:
                project = names[raw]
            else:
                try:
                    project = normalize_project_name(raw, config.project_aliases)
                except ConfigError:
                    project = None
                names[raw] = project
            if project is None:
                log.warning("assessment with unusable project name skipped: %r", raw)
                continue
            if wanted and project not in wanted:
                continue
            rank = GRADE_RANK[grade]
            articles = best[project]
            if articles.get(article, -1) < rank:
                articles[article] = rank

    fa, ga = GRADE_RANK[Grade.FA], GRADE_RANK[Grade.GA]
    counts = {}
    rows = []
    fa_counts = []
    ga_counts = []
    for project in sorted(best):
        ranks = list(best[project].values())
        n_fa, n_ga = ranks.count(fa), ranks.count(ga)
        n_articles, n_quality = len(ranks), n_fa + n_ga
        counts[project] = (n_articles, n_quality)
        rows.append(
            (project, n_articles, n_quality, q_score(n_quality, n_articles, config.p_exponent))
        )
        fa_counts.append(n_fa)
        ga_counts.append(n_ga)
    with _replaced_on_success(out / "quality.csv") as f:
        write_quality_csv(rows, f)

    # FA and GA counts are combined into one quality measure downstream; the
    # correlation between them is the check that this combination is sound.
    summary: dict[str, object] = {"projects_scored": len(rows)}
    try:
        r, p = pearson_r(fa_counts, ga_counts)
        summary["fa_ga_pearson_r"] = round_significant(r)
        summary["fa_ga_p_value"] = round_significant(p)
    except ValueError as exc:
        summary["fa_ga_pearson_r"] = None
        summary["fa_ga_p_value"] = None
        summary["note"] = f"correlation undefined: {exc}"
    with _replaced_on_success(out / "quality_summary.json") as f:
        f.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    log.info("quality: %d projects scored", len(rows))
    return counts


# -- metrics ----------------------------------------------------------------


def _read_projects_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def stage_metrics(config: PipelineConfig) -> int:
    """Join networks and quality, filter, and emit the per-project variables CSV."""
    out = _out(config)
    summary = _read_projects_csv(out / "projects.csv")
    quality_rows = {row["project"]: row for row in _read_projects_csv(out / "quality.csv")}

    members = _read_members(out)
    records = []
    quality_counts: dict[str, int] = {}
    for row in summary:
        project = row["project"]
        with open(out / "networks" / f"{_slug(project)}.edges", encoding="utf-8") as f:
            records.append(project_record(project, members[project], read_edge_list(f)))
        if project in quality_rows:
            quality_counts[project] = int(quality_rows[project]["n_quality"])
        else:
            quality_counts[project] = 0
            log.info("project %s has no quality row; treated as zero quality pages", project)

    kept = filter_projects(records, quality_counts, config.min_active_nodes)
    log.info("metrics: %d of %d projects kept after filtering", len(kept), len(records))

    header = [
        "project", "member_count", "active_nodes", "fraction",
        "det_norm", "deg_norm", "ei_norm", "avg_strength",
        "n_articles", "n_quality", "q_score",
    ]
    rows_out = []
    for record in kept:
        metrics = effective_information(record.network)
        quality_row = quality_rows[record.project]
        rows_out.append(
            [
                record.project,
                str(record.member_count),
                str(record.active_count),
                f"{record.fraction_in_network:.6f}",
                f"{metrics.determinism_norm:.6f}",
                f"{metrics.degeneracy_norm:.6f}",
                f"{metrics.effective_information_norm:.6f}",
                f"{record.network.average_strength():.6f}",
                quality_row["n_articles"],
                quality_row["n_quality"],
                quality_row["q_score"],
            ]
        )
    summary_vars = ["q_score", "fraction", "det_norm", "deg_norm", "avg_strength", "member_count"]
    summary_rows = []
    if rows_out:
        column_index = {name: i for i, name in enumerate(header)}
        for name in summary_vars:
            d = descriptives([float(r[column_index[name]]) for r in rows_out])
            summary_rows.append(
                [
                    name,
                    f"{d.mean:.6f}",
                    "" if d.sd is None else f"{d.sd:.6f}",
                    f"{d.median:.6f}",
                ]
            )
    with _replaced_on_success(out / "variables.csv") as f:
        _write_csv(f, header, rows_out)
    with _replaced_on_success(out / "variables_summary.csv") as f:
        _write_csv(f, ["variable", "mean", "sd", "median"], summary_rows)
    return len(kept)


# -- regress ----------------------------------------------------------------

MODEL_1 = ["fraction", "det_norm", "deg_norm", "strength_log", "members_log"]
MODEL_2 = ["det_norm", "deg_norm", "strength_log", "members_log"]
MODEL_3 = ["ei_norm", "strength_log", "members_log"]


def build_data_matrix(variables_csv: Path) -> DataMatrix:
    """Load the variables CSV and add the natural-log model columns."""
    with open(variables_csv, encoding="utf-8", newline="") as f:
        base = DataMatrix.from_csv(f, skip=["project"])
    columns = {name: base.column(name) for name in base.names}
    for source, target in (
        ("q_score", "quality_log"),
        ("avg_strength", "strength_log"),
        ("member_count", "members_log"),
    ):
        values = columns[source]
        if (values <= 0).any():
            raise ValueError(f"column {source} must be positive for log transform")
        columns[target] = [math.log(v) for v in values]
    return DataMatrix(columns)


def stage_regress(config: PipelineConfig) -> dict:
    """Fit the three quality models and emit the JSON and text reports."""
    out = _out(config)
    dm = build_data_matrix(out / "variables.csv")

    fits = [
        ols_fit(dm, "quality_log", MODEL_1),
        ols_fit(dm, "quality_log", MODEL_2),
        ols_fit(dm, "quality_log", MODEL_3),
    ]
    drop_fraction = nested_f_test(fits[0], fits[1])
    # H0: the determinism and degeneracy effects cancel (their sum is zero).
    weights = [0.0] * (len(MODEL_2) + 1)
    weights[1 + MODEL_2.index("det_norm")] = 1.0
    weights[1 + MODEL_2.index("deg_norm")] = 1.0
    det_deg_sum = linear_hypothesis(fits[1], weights, 0.0)

    report = {
        "models": {
            "model_1": fit_to_dict(fits[0]),
            "model_2": fit_to_dict(fits[1]),
            "model_3": fit_to_dict(fits[2]),
        },
        "nested_test_fraction_dropped": f_test_to_dict(drop_fraction),
        "linear_hypothesis_det_plus_deg_zero": f_test_to_dict(det_deg_sum),
        "metadata": {
            "n": dm.n_rows,
            "log_transform": "natural log",
            "response": "quality_log",
        },
    }
    _write_text(out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")

    table = render_coefficient_table(
        fits, ["Model 1", "Model 2", "Model 3"], VARIABLE_LABELS
    )
    lines = [
        "Effects of communication-network structure on project quality",
        "",
        table,
        f"Dropping the network fraction: F({drop_fraction.df1}, {drop_fraction.df2}) "
        f"= {drop_fraction.f_value:.3f}, p = {drop_fraction.p_value:.3f}",
        f"H0 determinism + degeneracy = 0: F({det_deg_sum.df1}, {det_deg_sum.df2}) "
        f"= {det_deg_sum.f_value:.3f}, p = {det_deg_sum.p_value:.3f}",
        "",
    ]
    _write_text(out / "report.txt", "\n".join(lines))
    log.info("regress: fitted 3 models on %d projects", dm.n_rows)
    return report


# -- report -----------------------------------------------------------------


def stage_report(config: PipelineConfig) -> dict:
    """Assemble bundle metadata describing provenance and comparability."""
    out = _out(config)
    manifest_path = out / "fetch_manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        snapshot = {
            "earliest_fetch": manifest.get("earliest_fetch"),
            "latest_fetch": manifest.get("latest_fetch"),
        }
    else:
        snapshot = {"earliest_fetch": None, "latest_fetch": None, "note": "pre-seeded inputs"}

    n_rows = 0
    variables_path = out / "variables.csv"
    if variables_path.exists():
        with open(variables_path, encoding="utf-8", newline="") as f:
            n_rows = sum(1 for _ in csv.DictReader(f))

    quality_summary = None
    summary_path = out / "quality_summary.json"
    if summary_path.exists():
        quality_summary = json.loads(summary_path.read_text(encoding="utf-8"))

    meta = {
        "quality_summary": quality_summary,
        "tool": {"name": "wikicomm", "version": __version__},
        "config": config.to_metadata(),
        "snapshot": snapshot,
        "observations": n_rows,
        "anchors_comparable": n_rows >= ANCHOR_COMPARABLE_MIN_ROWS,
        "reference_anchors": REFERENCE_SNAPSHOT_ANCHORS,
        "limitations": [
            "usernames are not rename-resolved; renamed accounts appear as distinct nodes",
            "member detection is signature-based; unsigned contributions to project pages are not seen",
            "log transforms use the natural logarithm",
        ],
    }
    _write_text(out / "bundle_meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return meta


STAGES = {
    "ingest": stage_ingest,
    "parse": stage_parse,
    "build": stage_build,
    "quality": stage_quality,
    "metrics": stage_metrics,
    "regress": stage_regress,
    "report": stage_report,
}

STAGE_ORDER = ["ingest", "parse", "build", "quality", "metrics", "regress", "report"]


def run_stage(name: str, config: PipelineConfig):
    """Run one stage, wrapping any failure with the stage name."""
    if name not in STAGES:
        raise ConfigError(f"unknown stage {name!r}; stages are {STAGE_ORDER}")
    try:
        return STAGES[name](config)
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def run_pipeline(config: PipelineConfig) -> dict:
    """Run all stages in order; returns the bundle metadata."""
    result = None
    for name in STAGE_ORDER:
        result = run_stage(name, config)
    return result  # type: ignore[return-value]
