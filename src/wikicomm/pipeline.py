"""End-to-end stage orchestration: ingest → parse → build → quality → metrics → regress → report.

Every stage reads its inputs from files under the output directory and
rewrites its outputs deterministically, so a run over an unchanged cache is
byte-identical and any stage can be rerun in isolation. A stage failure
halts the run with the stage name; everything already fetched stays cached.

The analysis layers (``graph``, ``quality``, ``stats``, ``report``) load on
the first call of one of their functions, so the commands that never compute
with them (``ingest``, ``parse``, ``--help``) start without them. Each such
function is a module-level name here that imports its module when first
called and stays the name the stages call: the benchmark's tracer wraps these
names to time each layer.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import itertools
import json
import logging
import math
import os
import shutil
from collections import defaultdict, deque
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence

from . import __version__
from .client import MediaWikiClient
from .config import ConfigError, PipelineConfig, normalize_project_name
from .wikitext import (
    canonical_username,
    count_interactions,
    extract_project_members,
    read_pages_jsonl,
    talk_page_owner,
)

__all__ = ["PipelineStageError", "STAGES", "run_stage", "run_pipeline"]

log = logging.getLogger(__name__)


def _on_first_call(module: str, name: str) -> Callable:
    """``wikicomm.<module>.<name>``, with the module imported on the first call."""
    target: Optional[Callable] = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(f".{module}", __package__), name)
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


effective_information = _on_first_call("graph", "effective_information")
read_edge_list = _on_first_call("graph", "read_edge_list")
write_edge_list = _on_first_call("graph", "write_edge_list")
build_networks = _on_first_call("graph", "build_networks")
q_score = _on_first_call("quality", "q_score")
read_assessments_csv = _on_first_call("quality", "read_assessments_csv")
f_test_to_dict = _on_first_call("report", "f_test_to_dict")
fit_to_dict = _on_first_call("report", "fit_to_dict")
render_coefficient_table = _on_first_call("report", "render_coefficient_table")
round_significant = _on_first_call("report", "round_significant")
descriptives = _on_first_call("stats", "descriptives")
linear_hypothesis = _on_first_call("stats", "linear_hypothesis")
nested_f_test = _on_first_call("stats", "nested_f_test")
ols_fit = _on_first_call("stats", "ols_fit")
pearson_r = _on_first_call("stats", "pearson_r")

VARIABLE_LABELS = {
    "fraction": "Fraction in communication network",
    "det_norm": "Determinism",
    "deg_norm": "Degeneracy",
    "ei_norm": "Effective information",
    "strength_log": "Average connection strength (log)",
    "members_log": "Number of project members (log)",
    "const": "Constant",
}

# Full-scale reference statistics for a February 2021 English-Wikipedia
# snapshot (1625 reconstructed networks filtered to 997). Desk-scale runs
# cannot reproduce them; they are kept only to sanity-check full crawls.
REFERENCE_SNAPSHOT_ANCHORS: dict[str, object] = {
    "networks_before_filtering": 1625,
    "networks_after_filtering": 997,
    "fa_ga_pearson_r": 0.92,
    "variables": {
        "quality": {"mean": 1.172, "sd": 1.684, "median": 0.652},
        "fraction": {"mean": 0.512, "sd": 0.173, "median": 0.503},
        "determinism": {"mean": 0.761, "sd": 0.093, "median": 0.782},
        "degeneracy": {"mean": 0.265, "sd": 0.139, "median": 0.238},
        "strength": {"mean": 30.094, "sd": 39.185, "median": 17.143},
        "members": {"mean": 136.39, "sd": 249.98, "median": 61.0},
    },
    "model_1": {"r_squared": 0.231, "f": 59.66, "df": [5, 991]},
    "model_2": {"r_squared": 0.231, "f": 74.6, "df": [4, 992]},
    "model_3": {"r_squared": 0.23, "f": 98.65, "df": [3, 993]},
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


@contextlib.contextmanager
def _dir_replaced_on_success(path: Path) -> Iterator[Path]:
    """A directory for the block to fill, swapped in for ``path`` once the block completes."""
    tmp = path.with_name(path.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        yield tmp
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _write_text(path: Path, text: str) -> None:
    with _replaced_on_success(path) as f:
        f.write(text)


def _json_text(doc) -> str:
    """``doc`` as the JSON text of every JSON output: indented, keys sorted."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_json(path: Path):
    """The JSON document at ``path``, or None where there is no file."""
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


def _write_csv(out: IO[str], header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# -- ingest -----------------------------------------------------------------

# One encoder for every page record: json.dumps with options builds one per call.
_encode_page = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def stage_ingest(config: PipelineConfig, client: Optional[MediaWikiClient] = None) -> dict:
    """Fetch project pages, member talk pages, and assessments into the work dir."""
    out = _out(config)
    ingest_outputs = ["project_pages.jsonl", "talk_pages.jsonl", "assessments.csv"]
    if config.offline and all((out / name).exists() for name in ingest_outputs):
        log.info("ingest: offline, reusing pre-seeded inputs in %s", out)
        manifest = _read_json(out / "fetch_manifest.json")
        return manifest or {"requests": 0, "earliest_fetch": None, "latest_fetch": None}
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
            pages = list(client.fetch_project_pages(project))
            for title, wikitext in pages:
                record = {"project": project, "title": title, "wikitext": wikitext}
                f_projects.write(_encode_page(record) + "\n")
            members_by_project[project] = extract_project_members(pages)

        all_members = sorted(set().union(*members_by_project.values()))
        for title, wikitext in client.fetch_user_talk_pages(all_members):
            f_talk.write(_encode_page({"title": title, "wikitext": wikitext}) + "\n")

        _write_csv(f_assessments, ["project", "article", "grade"], client.fetch_assessments())

    manifest = {
        "requests": client.answers,
        "earliest_fetch": client.earliest_fetch,
        "latest_fetch": client.latest_fetch,
    }
    _write_text(out / "fetch_manifest.json", _json_text(manifest))
    log.info("ingest: %d projects, %d member talk pages", len(projects), len(all_members))
    return manifest


# -- parse ------------------------------------------------------------------

# Bytes of page-dump lines per parse task: enough work per task that the
# round trip to a worker stays small next to the parse, few enough that the
# chunks in flight hold little memory. A chunk ends with the line that takes
# it to this size.
PARSE_CHUNK_BYTES = 1 << 20


@contextlib.contextmanager
def _parse_pool() -> Iterator[Callable[[Iterable[Callable[[], object]]], Iterator]]:
    """``in_order(tasks)``: the results of zero-argument tasks, in task order.

    The tasks run on one worker per CPU this process may use. With one CPU,
    or on a host without ``os.sched_getaffinity`` (macOS, Windows, which
    also lacks ``fork``), each runs in this process when its result is asked
    for, where it can be profiled and hooked. A worker that dies (say,
    killed for memory) fails the stage with ``BrokenProcessPool`` instead of
    hanging it.
    """
    n_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if n_cpus == 1:
        yield lambda tasks: (task() for task in tasks)
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

    def in_order(tasks: Iterable[Callable[[], object]]) -> Iterator:
        # Two tasks per worker in flight: each worker has its next task
        # queued while this process writes results, and at most that many
        # chunks are held in memory.
        pending: deque = deque()
        for task in tasks:
            pending.append(executor.submit(task))
            if len(pending) == 2 * n_cpus:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        yield in_order
    finally:
        executor.shutdown(cancel_futures=True)


def _line_chunks(path: Path) -> Iterator[tuple[int, Path, int, int]]:
    """``(number of the first line, path, offset, size)`` per run of about ``PARSE_CHUNK_BYTES``.

    Each run ends at the end of a line. Only newlines are counted here: the
    worker reads and decodes its own byte range.
    """
    lineno = 1
    offset = 0
    with open(path, "rb") as f:
        while data := f.read(PARSE_CHUNK_BYTES):
            if not data.endswith(b"\n"):
                data += f.readline()
            yield lineno, path, offset, len(data)
            lineno += data.count(b"\n")
            offset += len(data)


def _chunk_records(chunk: tuple[int, Path, int, int], keys: Sequence[str]) -> Iterator[dict]:
    """The page records of one chunk from :func:`_line_chunks`, read from its file.

    Each record must hold a string at each of ``keys``.
    """
    first_lineno, path, offset, size = chunk
    with open(path, "rb") as f:
        f.seek(offset)
        data = f.read(size)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = first_lineno + data.count(b"\n", 0, exc.start)
        raise ValueError(f"line {lineno}: {exc}") from exc
    # Split at "\n" only: str.splitlines would also split at the U+2028 and
    # U+0085 that JSON strings may hold unescaped. A CRLF line keeps its
    # "\r", which read_pages_jsonl strips.
    return read_pages_jsonl(text.split("\n"), start=first_lineno, keys=keys)


def _project_members_chunk(chunk: tuple[int, Path, int, int]) -> dict[str, set[str]]:
    """The members found on a chunk of ``project_pages.jsonl`` lines, per project."""
    pages_by_project: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for record in _chunk_records(chunk, ("project", "title", "wikitext")):
        pages_by_project[record["project"]].append((record["title"], record["wikitext"]))
    return {
        project: extract_project_members(pages) for project, pages in pages_by_project.items()
    }


def _parse_talk_chunk(
    agents: frozenset[str], markers: Sequence[str], chunk: tuple[int, Path, int, int]
) -> tuple[str, int, int, int, int, list[str]]:
    """Count the posts of a chunk of ``talk_pages.jsonl`` lines.

    Returns the chunk's interaction lines; its page and post counts; the
    posts dropped in mass-message threads and, of the others, the owners'
    own posts; and why each skipped record was skipped. A page's interaction
    lines give, per author in order of first appearance, the number of its
    posts outside mass-message threads; the owner's own posts are not
    counted. ``agents`` are the delivery agents' canonical usernames.
    """
    interactions = []
    n_pages = n_posts = n_mass = n_self = 0
    skipped = []
    for record in _chunk_records(chunk, ("title", "wikitext")):
        try:
            owner = talk_page_owner(record["title"])
        except ValueError as exc:
            skipped.append(str(exc))
            continue
        posts, mass, counts = count_interactions(owner, record["wikitext"], agents, markers)
        n_pages += 1
        n_posts += posts
        n_mass += mass
        n_self += posts - mass - sum(counts.values())
        interactions.extend(f"{author}\t{owner}\t{n}\n" for author, n in counts.items())
    return "".join(interactions), n_pages, n_posts, n_mass, n_self, skipped


def stage_parse(config: PipelineConfig) -> dict:
    """Parse fetched wikitext into member sets and interaction counts.

    The chunks of both dumps, project pages first, go through one stream of
    tasks, so the workers start on the talk pages while the members are
    merged. The parsing runs on every CPU in the process's affinity mask;
    the outputs are written in input order, so they do not depend on the
    CPU count.
    """
    out = _out(config)
    parse_chunk = functools.partial(
        _parse_talk_chunk,
        frozenset(canonical_username(a) for a in config.delivery_agents),
        config.mass_message_markers,
    )
    project_chunks = list(_line_chunks(out / "project_pages.jsonl"))
    tasks = itertools.chain(
        (functools.partial(_project_members_chunk, chunk) for chunk in project_chunks),
        (functools.partial(parse_chunk, chunk) for chunk in _line_chunks(out / "talk_pages.jsonl")),
    )
    members: dict[str, set[str]] = defaultdict(set)
    n_pages = n_posts = n_mass = n_self = skipped = 0
    with _parse_pool() as in_order, _replaced_on_success(
        out / "members.json"
    ) as f_members, _replaced_on_success(out / "interactions.tsv") as f_interactions:
        results = in_order(tasks)
        for found in itertools.islice(results, len(project_chunks)):
            for project, names in found.items():
                members[project] |= names
        sorted_members = {project: sorted(names) for project, names in members.items()}
        f_members.write(_json_text(sorted_members))
        for interactions, pages, posts, mass, own, reasons in results:
            f_interactions.write(interactions)
            n_pages += pages
            n_posts += posts
            n_mass += mass
            n_self += own
            skipped += len(reasons)
            for reason in reasons:
                log.warning("skipping non-user-talk record: %s", reason)
    log.info(
        "parse: %d pages -> %d posts (%d records skipped); %d posts kept; "
        "dropped %d in mass-message threads, %d self-posts",
        n_pages, n_posts, skipped, n_posts - n_mass - n_self, n_mass, n_self,
    )
    return {
        "pages": n_pages,
        "posts": n_posts,
        "mass_message_posts": n_mass,
        "self_posts": n_self,
        "skipped": skipped,
    }


# -- build ------------------------------------------------------------------


def _read_members(out: Path) -> dict[str, set[str]]:
    """Each project's member set, from ``members.json``.

    Raises:
        ValueError: unless the file maps each project to a list of names.
    """
    members = json.loads((out / "members.json").read_text(encoding="utf-8"))
    if not isinstance(members, dict):
        raise ValueError("members.json must map each project to a list of names")
    for project, names in members.items():
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise ValueError(f"members.json: project {project!r} must list names as strings")
    return {project: set(names) for project, names in members.items()}


def _read_interactions(path: Path) -> Iterator[tuple[str, str, int]]:
    """Stream the ``(author, page_owner, count)`` lines of ``interactions.tsv``."""
    with open(path, encoding="utf-8", newline="") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split("\t")
            # A count is ASCII digits of a value >= 1; str.isdigit alone takes "²".
            valid = len(parts) == 3 and parts[2].isascii() and parts[2].isdigit()
            count = int(parts[2]) if valid else 0
            if count < 1:
                raise ValueError(f"{path.name} line {lineno}: malformed line {line!r}")
            yield parts[0], parts[1], count


def stage_build(config: PipelineConfig) -> int:
    """Sum interaction counts into per-project networks, edge lists, and the summary CSV.

    Each network's sorted edge rows are written out as they are built; only
    its ``projects.csv`` row is kept.
    """
    out = _out(config)
    interactions = out / "interactions.tsv"
    if not interactions.exists():
        # Reached when build runs before parse.
        raise FileNotFoundError(f"{interactions} not found; rerun the parse stage")
    members = _read_members(out)
    for project in sorted(members):
        if not members[project]:
            log.warning("project %s has no detected members, skipped", project)
            del members[project]

    rows = []
    slugs: set[str] = set()
    summary = out / "projects.csv"
    # Removed just before networks/ is swapped and replaced after it: an
    # interrupted swap leaves no summary for metrics to pair with old networks.
    with _replaced_on_success(summary) as f_summary, _dir_replaced_on_success(
        out / "networks"
    ) as networks_dir:
        networks = build_networks(_read_interactions(interactions), members)
        for project, network, isolated in networks:
            slug = _slug(project)
            if slug in slugs:
                raise ValueError(f"project slug collision for {project!r}")
            slugs.add(slug)
            with open(networks_dir / f"{slug}.edges", "w", encoding="utf-8") as f:
                write_edge_list(network, isolated, f)
            member_count = len(members[project])
            active = member_count - len(isolated)
            rows.append((project, member_count, active, f"{active / member_count:.6f}"))
        header = ["project", "member_count", "active_nodes", "fraction_in_network"]
        _write_csv(f_summary, header, rows)
        summary.unlink(missing_ok=True)
    log.info("build: %d project networks", len(rows))
    return len(rows)


# -- quality ----------------------------------------------------------------


def stage_quality(config: PipelineConfig) -> dict[str, tuple[int, int]]:
    """Compute N_Q and Q_p per configured project from the assessment dump.

    One pass over the rows keeps, per project, the best grade rank of each
    article (FA 2, GA 1, any other 0); the per-project counts come from that
    dict alone.
    """
    out = _out(config)
    wanted = set(config.canonical_projects())
    # Rows far outnumber the distinct raw spellings of project names, so each
    # spelling is normalized, and an unusable one reported, once; None marks
    # an unusable name.
    names: dict[str, Optional[str]] = {}
    best: dict[str, dict[str, int]] = defaultdict(dict)
    with open(out / "assessments.csv", encoding="utf-8") as f:
        for raw, article, rank in read_assessments_csv(f):
            if raw in names:
                project = names[raw]
            else:
                try:
                    project = normalize_project_name(raw, config.project_aliases)
                except ConfigError:
                    project = None
                    log.warning("assessment with unusable project name skipped: %r", raw)
                names[raw] = project
            if project is None:
                continue
            if wanted and project not in wanted:
                continue
            articles = best[project]
            if articles.get(article, -1) < rank:
                articles[article] = rank

    counts = {}
    rows = []
    fa_counts = []
    ga_counts = []
    for project in sorted(best):
        ranks = list(best[project].values())
        n_fa, n_ga = ranks.count(2), ranks.count(1)
        n_articles, n_quality = len(ranks), n_fa + n_ga
        counts[project] = (n_articles, n_quality)
        score = q_score(n_quality, n_articles, config.p_exponent)
        rows.append((project, n_articles, n_quality, f"{score:.6f}"))
        fa_counts.append(n_fa)
        ga_counts.append(n_ga)
    with _replaced_on_success(out / "quality.csv") as f:
        _write_csv(f, ["project", "n_articles", "n_quality", "q_score"], rows)

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
    _write_text(out / "quality_summary.json", _json_text(summary))
    log.info("quality: %d projects scored", len(rows))
    return counts


# -- metrics ----------------------------------------------------------------


def _read_projects_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def stage_metrics(config: PipelineConfig) -> int:
    """Filter the built projects, measure the kept networks, and emit the variables CSV.

    A project is kept when its network has at least ``min_active_nodes``
    active nodes and it has at least one FA/GA page; a project without a
    quality row has none. Only the kept projects' edge lists are read.
    """
    out = _out(config)
    built = _read_projects_csv(out / "projects.csv")
    quality_rows = {row["project"]: row for row in _read_projects_csv(out / "quality.csv")}

    kept = []
    below_min_active = no_quality_row = no_fa_ga = 0
    for row in built:
        project = row["project"]
        quality_row = quality_rows.get(project)
        if quality_row is None:
            log.info("project %s has no quality row; treated as zero quality pages", project)
        if int(row["active_nodes"]) < config.min_active_nodes:
            below_min_active += 1
        elif quality_row is None:
            no_quality_row += 1
        elif int(quality_row["n_quality"]) < 1:
            no_fa_ga += 1
        else:
            kept.append((row, quality_row))
    log.info(
        "metrics: %d of %d projects kept; dropped %d below min_active_nodes (%d), "
        "%d without a quality row, %d without FA/GA",
        len(kept), len(built), below_min_active, config.min_active_nodes,
        no_quality_row, no_fa_ga,
    )

    header = [
        "project", "member_count", "active_nodes", "fraction",
        "det_norm", "deg_norm", "ei_norm", "avg_strength",
        "n_articles", "n_quality", "q_score",
    ]
    rows_out = []
    for row, quality_row in kept:
        with open(out / "networks" / f"{_slug(row['project'])}.edges", encoding="utf-8") as f:
            metrics = effective_information(read_edge_list(f))
        rows_out.append(
            [
                row["project"],
                row["member_count"],
                row["active_nodes"],
                row["fraction_in_network"],
                f"{metrics.determinism_norm:.6f}",
                f"{metrics.degeneracy_norm:.6f}",
                f"{metrics.effective_information_norm:.6f}",
                f"{metrics.average_strength:.6f}",
                quality_row["n_articles"],
                quality_row["n_quality"],
                quality_row["q_score"],
            ]
        )
    summary_vars = ["q_score", "fraction", "det_norm", "deg_norm", "avg_strength", "member_count"]
    summaries = []
    if rows_out:
        column_index = {name: i for i, name in enumerate(header)}
        for name in summary_vars:
            mean, sd, median = descriptives([float(r[column_index[name]]) for r in rows_out])
            summaries.append(
                [name, f"{mean:.6f}", "" if sd is None else f"{sd:.6f}", f"{median:.6f}"]
            )
    with _replaced_on_success(out / "variables.csv") as f:
        _write_csv(f, header, rows_out)
    with _replaced_on_success(out / "variables_summary.csv") as f:
        _write_csv(f, ["variable", "mean", "sd", "median"], summaries)
    return len(kept)


# -- regress ----------------------------------------------------------------

MODEL_1 = ["fraction", "det_norm", "deg_norm", "strength_log", "members_log"]
MODEL_2 = ["det_norm", "deg_norm", "strength_log", "members_log"]
MODEL_3 = ["ei_norm", "strength_log", "members_log"]


def _read_model_columns(variables_csv: Path) -> dict[str, list[float]]:
    """Read every column but ``project`` as numbers and add the natural-log columns."""
    with open(variables_csv, encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        if not reader.fieldnames:
            raise ValueError("CSV has no header")
        columns = {name: [] for name in reader.fieldnames if name != "project"}
        for lineno, row in enumerate(reader, start=2):
            for name, values in columns.items():
                try:
                    values.append(float(row[name]))
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"line {lineno}: column {name!r} is not numeric: {row[name]!r}"
                    ) from exc
    for source, target in (
        ("q_score", "quality_log"),
        ("avg_strength", "strength_log"),
        ("member_count", "members_log"),
    ):
        values = columns[source]
        if any(v <= 0 for v in values):
            raise ValueError(f"column {source} must be positive for log transform")
        columns[target] = [math.log(v) for v in values]
    return columns


def stage_regress(config: PipelineConfig) -> dict:
    """Fit the three quality models and emit the JSON and text reports."""
    out = _out(config)
    columns = _read_model_columns(out / "variables.csv")

    fits = [
        ols_fit(columns, "quality_log", MODEL_1),
        ols_fit(columns, "quality_log", MODEL_2),
        ols_fit(columns, "quality_log", MODEL_3),
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
            "n": fits[0].n,
            "log_transform": "natural log",
            "response": "quality_log",
        },
    }
    _write_text(out / "report.json", _json_text(report))

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
    log.info("regress: fitted 3 models on %d projects", fits[0].n)
    return report


# -- report -----------------------------------------------------------------


def stage_report(config: PipelineConfig) -> dict:
    """Assemble bundle metadata describing provenance and comparability."""
    out = _out(config)
    manifest = _read_json(out / "fetch_manifest.json")
    if manifest is not None:
        snapshot = {
            "earliest_fetch": manifest.get("earliest_fetch"),
            "latest_fetch": manifest.get("latest_fetch"),
        }
    else:
        snapshot = {"earliest_fetch": None, "latest_fetch": None, "note": "pre-seeded inputs"}

    # The observations are those the models used, as regress recorded them.
    report = _read_json(out / "report.json")
    observations = report["metadata"]["n"] if report is not None else 0

    meta = {
        "quality_summary": _read_json(out / "quality_summary.json"),
        "tool": {"name": "wikicomm", "version": __version__},
        "config": config.to_metadata(),
        "snapshot": snapshot,
        "observations": observations,
        "anchors_comparable": observations >= ANCHOR_COMPARABLE_MIN_ROWS,
        "reference_anchors": REFERENCE_SNAPSHOT_ANCHORS,
        "limitations": [
            "usernames are not rename-resolved; renamed accounts appear as distinct nodes",
            "member detection is signature-based; unsigned contributions to project pages are not seen",
            "log transforms use the natural logarithm",
        ],
    }
    _write_text(out / "bundle_meta.json", _json_text(meta))
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

STAGE_ORDER = list(STAGES)


def run_stage(name: str, config: PipelineConfig):
    """Run one stage, wrapping any failure with the stage name."""
    if name not in STAGES:
        raise ConfigError(f"unknown stage {name!r}; stages are {STAGE_ORDER}")
    try:
        return STAGES[name](config)
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def run_pipeline(config: PipelineConfig) -> dict:
    """Run all stages in order; returns the bundle metadata."""
    result = None
    for name in STAGE_ORDER:
        result = run_stage(name, config)
    return result  # type: ignore[return-value]
