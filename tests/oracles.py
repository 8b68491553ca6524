"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately coded on a different route than the library:
graph metrics from explicit per-node dictionaries and a hand-looped entropy,
networks from a rescan of every post per project, talk-page posts from the
first parser (a regex scan of each line prefix, ``datetime`` plus
``strftime`` per post, one ``json.dumps`` per record),
OLS through numpy's LAPACK-backed inverse of the normal equations (and,
exactly, through the same equations in rational arithmetic), the
incomplete beta from its hypergeometric power series instead of the
continued fraction, and quality counts from a list of assessment records
deduplicated and then counted one project at a time.

One section is not a reference: the post-level view of the package's own
parser (``parse_talk_page`` and its parts), built from the package's
signature scan and thread split, so that its posts can be compared one by
one with the first parser's and with the annotated corpus. The package's
scan gives only each signature's author and end; the view rebuilds the
post's timestamp here, from the timestamp that ends there, with this
module's own regex and ``datetime``.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Optional, Sequence

import numpy as np


def entropy_bits(probabilities) -> float:
    """Shannon entropy in bits via an explicit loop; 0 log 0 is 0."""
    total = 0.0
    for p in probabilities:
        if p > 0:
            total -= p * math.log(p, 2)
    return total


def direct_structure_metrics(edges: dict[tuple[str, str], int]) -> tuple[float, float, int]:
    """(determinism, degeneracy, active count) straight from the definitions.

    ``edges`` maps unordered node pairs to positive integer weights. Rows are
    built as per-node dictionaries of neighbor probabilities; isolated nodes
    never appear.
    """
    strength: dict[str, float] = {}
    for (u, v), w in edges.items():
        strength[u] = strength.get(u, 0.0) + w
        strength[v] = strength.get(v, 0.0) + w
    active = sorted(strength)
    n = len(active)
    if n < 2:
        raise ValueError("need at least 2 active nodes")

    rows: dict[str, dict[str, float]] = {u: {} for u in active}
    for (u, v), w in edges.items():
        rows[u][v] = rows[u].get(v, 0.0) + w / strength[u]
        rows[v][u] = rows[v].get(u, 0.0) + w / strength[v]

    mean_entropy = sum(entropy_bits(row.values()) for row in rows.values()) / n
    det = math.log(n, 2) - mean_entropy

    averaged: dict[str, float] = {}
    for row in rows.values():
        for target, p in row.items():
            averaged[target] = averaged.get(target, 0.0) + p / n
    deg = math.log(n, 2) - entropy_bits(averaged.values())
    return det, deg, n


def summed_rows(rows) -> list[tuple[str, str, int]]:
    """``(u, v, w)`` rows in any order and direction, summed per pair, each
    with ``u < v``, sorted: the one form ``effective_information`` takes."""
    summed: dict[tuple[str, str], int] = {}
    for u, v, w in rows:
        key = (min(u, v), max(u, v))
        summed[key] = summed.get(key, 0) + w
    return [(u, v, w) for (u, v), w in sorted(summed.items())]


def direct_networks(posts, members_by_project):
    """Per project: (node set, {(u, v): weight} with u < v), rescanning every post.

    Each project's members are nodes; a post counts when its author and page
    owner differ and both are members of that project.
    """
    networks = {}
    for project, members in members_by_project.items():
        member_set = set(members)
        edges: dict[tuple[str, str], int] = {}
        for author, owner in posts:
            if author != owner and author in member_set and owner in member_set:
                key = (min(author, owner), max(author, owner))
                edges[key] = edges.get(key, 0) + 1
        networks[project] = (member_set, edges)
    return networks


_REF_HEADING_RE = re.compile(r"^==([^=\n][^\n]*?)==[ \t]*$", re.MULTILINE)
_REF_USER_LINK_RE = re.compile(
    r"\[\[\s*[Uu]ser(?:[ _][Tt]alk)?\s*:\s*([^|\[\]#/]+?)\s*(?:[|#/][^\[\]]*)?\]\]",
    re.IGNORECASE,
)
_REF_MONTHS = {
    name: i
    for i, name in enumerate(
        (
            "January", "February", "March", "April", "May", "June",
            "July", "August", "September", "October", "November", "December",
        ),
        start=1,
    )
}
_REF_TIMESTAMP_RE = re.compile(
    r"(\d{1,2}):(\d{2}),\s*(\d{1,2})\s+"
    r"(January|February|March|April|May|June|July|August|September|October|November|December)"
    r"\s+(\d{4})\s+\(UTC\)"
)
_REF_DEPTH_RE = re.compile(r"^[:*]+")


def _ref_canonical(raw: str) -> str:
    name = " ".join(raw.replace("_", " ").split())
    return name[0].upper() + name[1:] if name else ""


def _ref_timestamp(ts_match) -> Optional[datetime]:
    """The UTC time a ``_REF_TIMESTAMP_RE`` match names, or None for an impossible date."""
    try:
        return datetime(
            int(ts_match.group(5)), _REF_MONTHS[ts_match.group(4)],
            int(ts_match.group(3)), int(ts_match.group(1)), int(ts_match.group(2)),
            tzinfo=timezone.utc,
        )
    except ValueError:
        return None


def _ref_signatures(text: str):
    """(author, datetime, end) per signature: every link in the line prefix, last wins."""
    for ts_match in _REF_TIMESTAMP_RE.finditer(text):
        line_start = text.rfind("\n", 0, ts_match.start()) + 1
        user = None
        for link in _REF_USER_LINK_RE.finditer(text[line_start : ts_match.start()]):
            user = _ref_canonical(link.group(1))
        ts = _ref_timestamp(ts_match)
        if user and ts is not None:
            yield user, ts, ts_match.end()


def _ref_posts(body: str):
    """(author, datetime, depth) per post of one thread body."""
    posts = []
    cursor = 0
    for user, ts, end in _ref_signatures(body):
        first = ""
        for line in body[cursor:end].split("\n"):
            if line.strip() and not line.lstrip().startswith("="):
                first = line
                break
        depth_match = _REF_DEPTH_RE.match(first)
        posts.append((user, ts, len(depth_match.group(0)) if depth_match else 0))
        cursor = end
    return posts


def reference_posts_jsonl(title: str, wikitext: str, delivery_agents, markers) -> str:
    """The ``posts.jsonl`` lines of one user talk page, as the first parser wrote them."""
    owner = _ref_canonical(re.match(r"[Uu]ser[ _][Tt]alk:(.+)$", title).group(1).split("/", 1)[0])
    matches = list(_REF_HEADING_RE.finditer(wikitext))
    sections = []
    preamble = wikitext[: matches[0].start()] if matches else wikitext
    if preamble.strip():
        sections.append(("", preamble))
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(wikitext)
        sections.append((m.group(1).strip(), wikitext[m.end() : end]))
    lines = []
    for heading, body in sections:
        posts = _ref_posts(body)
        agents = {_ref_canonical(a) for a in delivery_agents}
        mass = any(user in agents for user, _, _ in posts) or any(m in body for m in markers)
        for user, ts, depth in posts:
            record = {
                "page_owner": owner,
                "thread": heading,
                "author": user,
                "timestamp": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "depth": depth,
                "mass_message": mass,
            }
            lines.append(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    return "".join(lines)


# -- the package's parser, post by post ---------------------------------------
# wikicomm is imported inside these functions: the benchmark's output checker
# imports this module for its walk metrics without the package on its path.


@dataclass(frozen=True)
class Signature:
    """Author attribution parsed from a user-namespace link plus UTC timestamp."""

    user: str
    timestamp: datetime


@dataclass(frozen=True)
class Post:
    """One signed message: author, signing time, indentation depth."""

    author: str
    timestamp: datetime
    depth: int
    is_template_message: bool = False


@dataclass
class DiscussionThread:
    """A talk-page section: heading, raw body, and the posts parsed from it."""

    heading: str
    body: str
    posts: list[Post] = field(default_factory=list)
    is_mass_message: bool = False


def _timestamps(text: str) -> dict[int, datetime]:
    """The time each timestamp in ``text`` names, by where it ends.

    A signature of the package's scan ends where its timestamp ends; one
    that it keeps with an impossible date has no entry here.
    """
    stamps = {}
    for ts_match in _REF_TIMESTAMP_RE.finditer(text):
        ts = _ref_timestamp(ts_match)
        if ts is not None:
            stamps[ts_match.end()] = ts
    return stamps


def parse_signature(segment: str) -> Optional[Signature]:
    """The first signature in ``segment``, or None if there is none."""
    from wikicomm.wikitext import _iter_signatures

    for user, end in _iter_signatures(segment):
        return Signature(user=user, timestamp=_timestamps(segment)[end])
    return None


def split_threads(text: str) -> list[DiscussionThread]:
    """A talk page's level-2 threads, without posts.

    Content before the first heading forms an implicit thread with an empty
    heading (only if it holds any non-whitespace). Lower-level headings
    (``===`` and deeper) stay inside their parent thread.
    """
    from wikicomm.wikitext import _signed_threads

    return [
        DiscussionThread(heading, text[start:end])
        for heading, start, end, _ in _signed_threads(text, ())
    ]


def _first_content_line(text: str, start: int, end: int) -> str:
    # Blank lines and subsection headings are structure, not post content.
    while start < end:
        stop = text.find("\n", start, end)
        if stop < 0:
            stop = end
        line = text[start:stop]
        content = line.lstrip()
        if content and not content.startswith("="):
            return line
        start = stop + 1
    return ""


def _posts(text: str, cursor: int, signatures, stamps: dict[int, datetime]) -> list[Post]:
    """The posts that ``signatures`` end, the first of them starting at ``cursor``.

    ``stamps`` are the :func:`_timestamps` of ``text``.
    """
    posts: list[Post] = []
    for author, end in signatures:
        first = _first_content_line(text, cursor, end)
        content = first.lstrip(":*")
        posts.append(
            Post(author, stamps[end], len(first) - len(content), content.lstrip().startswith("{{"))
        )
        cursor = end
    return posts


def extract_posts(body: str) -> list[Post]:
    """Split a thread body at signatures; unsigned trailing text yields no post.

    Each post runs from the end of the previous signature to the end of its
    own; depth is the count of leading ``:``/``*`` on the post's first
    content line (blank and subsection-heading lines are skipped).
    """
    from wikicomm.wikitext import _iter_signatures

    return _posts(body, 0, _iter_signatures(body), _timestamps(body))


def is_mass_message(
    thread: DiscussionThread,
    delivery_agents: Optional[Sequence[str]] = None,
    markers: Optional[Sequence[str]] = None,
) -> bool:
    """The package's mass-message rule for one thread; None means the package's default list."""
    from wikicomm import wikitext

    agents = wikitext.DEFAULT_DELIVERY_AGENTS if delivery_agents is None else delivery_agents
    return wikitext._is_mass_message(
        [p.author for p in thread.posts],
        thread.body,
        {wikitext.canonical_username(a) for a in agents},
        wikitext.DEFAULT_MASS_MESSAGE_MARKERS if markers is None else markers,
    )


def parse_talk_page(text: str) -> list[DiscussionThread]:
    """A talk page's threads with their posts and mass-message flags, default lists."""
    from wikicomm.wikitext import _iter_signatures, _signed_threads

    stamps = _timestamps(text)
    threads = []
    for heading, start, end, signed in _signed_threads(
        text, _iter_signatures(text, skip_headings=True)
    ):
        thread = DiscussionThread(heading, text[start:end], _posts(text, start, signed, stamps))
        thread.is_mass_message = is_mass_message(thread)
        threads.append(thread)
    return threads


def posts_to_records(owner: str, threads) -> list[dict]:
    """Flatten :func:`parse_talk_page` threads into post records.

    The records are what the first parser wrote to ``posts.jsonl``, so the
    library's parser can be checked against ``reference_posts_jsonl`` and
    the annotated corpus. Timestamps read ``YYYY-MM-DDTHH:MM:SSZ``, except
    that years below 1000 are not zero-padded (``999-01-02T03:04:00Z``), as
    glibc's ``strftime`` wrote them.
    """
    records = []
    for thread in threads:
        for post in thread.posts:
            ts = post.timestamp
            records.append(
                {
                    "page_owner": owner,
                    "thread": thread.heading,
                    "author": post.author,
                    "timestamp": "%d-%02d-%02dT%02d:%02d:%02dZ"
                    % (ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second),
                    "depth": post.depth,
                    "mass_message": thread.is_mass_message,
                }
            )
    return records


# A post record as ``json.dumps(record, ensure_ascii=False, sort_keys=True)``
# writes it; the string fields go through the same escaper.
_POST_LINE = (
    '{"author": %s, "depth": %d, "mass_message": %s, '
    '"page_owner": %s, "thread": %s, "timestamp": %s}\n'
)


def write_posts_jsonl(records, out) -> int:
    """Write post records as JSON lines; returns the number written.

    Each record has the keys that :func:`posts_to_records` gives it, and its
    line reads as ``json.dumps(record, ensure_ascii=False, sort_keys=True)``.
    """
    lines = [
        _POST_LINE
        % (
            encode_basestring(r["author"]),
            r["depth"],
            "true" if r["mass_message"] else "false",
            encode_basestring(r["page_owner"]),
            encode_basestring(r["thread"]),
            encode_basestring(r["timestamp"]),
        )
        for r in records
    ]
    out.write("".join(lines))
    return len(lines)


def reference_project_members(pages) -> set[str]:
    """Signature authors over whole project pages, heading lines included."""
    return {user for _, text in pages for user, _, _ in _ref_signatures(text)}


def ols_normal_equations(x: np.ndarray, y: np.ndarray):
    """Brute-force OLS: beta and SEs from inv(X'X), plus R², overall F, RSS.

    ``x`` must already contain the intercept column.
    """
    xtx_inv = np.linalg.inv(x.T @ x)
    beta = xtx_inv @ (x.T @ y)
    resid = y - x @ beta
    rss = float(resid @ resid)
    n, p = x.shape
    df2 = n - p
    sigma2 = rss / df2 if df2 > 0 else float("nan")
    se = np.sqrt(sigma2 * np.diag(xtx_inv)) if df2 > 0 else np.full(p, np.nan)
    centered = y - y.mean()
    tss = float(centered @ centered)
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    k = p - 1
    f = ((tss - rss) / k) / (rss / df2) if k > 0 and df2 > 0 and rss > 0 else float("nan")
    return beta, se, r2, f, rss


def ols_exact(x: np.ndarray, y: np.ndarray) -> list[float]:
    """OLS coefficients of the given float data, exactly, each rounded once.

    The normal equations are formed and solved by Gauss-Jordan elimination in
    ``Fraction`` arithmetic, so no rounding happens before the final float.
    ``x`` must already contain the intercept column and have full rank, so
    XᵀX is positive definite and needs no pivoting.
    """
    rows = [[Fraction(float(v)) for v in row] for row in x]
    targets = [Fraction(float(v)) for v in y]
    p = len(rows[0])
    a = [
        [sum(r[i] * r[j] for r in rows) for j in range(p)]
        + [sum(r[i] * t for r, t in zip(rows, targets))]
        for i in range(p)
    ]
    for k in range(p):
        for i in range(p):
            if i != k:
                factor = a[i][k] / a[k][k]
                a[i] = [u - factor * w for u, w in zip(a[i], a[k])]
    return [float(a[i][p] / a[i][i]) for i in range(p)]


def betainc_series(a: float, b: float, x: float, tol: float = 1e-17) -> float:
    """Regularized incomplete beta from the 2F1(1, a+b; a+1; x) power series.

    All terms are positive, so there is no cancellation; the symmetry
    I_x(a,b) = 1 - I_{1-x}(b,a) keeps the series in its fast region.
    """
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > a / (a + b):
        return 1.0 - betainc_series(b, a, 1.0 - x, tol)
    log_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        - math.log(a)
    )
    term = 1.0
    total = 1.0
    n = 0
    while True:
        term *= (a + b + n) / (a + 1.0 + n) * x
        total += term
        n += 1
        if term < tol * total:
            break
        if n > 10_000_000:
            raise ArithmeticError("series did not converge")
    return math.exp(log_front) * total


def ks_statistic_uniform(sample) -> float:
    """Kolmogorov-Smirnov distance of a sample from Uniform(0, 1)."""
    ordered = sorted(sample)
    n = len(ordered)
    d = 0.0
    for i, value in enumerate(ordered):
        d = max(d, abs((i + 1) / n - value), abs(value - i / n))
    return d


# One assessment row; ``grade`` is the raw spelling from the CSV, which is
# normalized here rather than by the library.
Assessment = namedtuple("Assessment", "project article grade")
_GRADE_ORDER = ("Other", "GA", "FA")


def _grade(raw: str) -> str:
    """A raw grade as compared: stripped and upper-cased, "Other" unless FA or GA."""
    grade = raw.strip().upper()
    return grade if grade in ("FA", "GA") else "Other"


def dedupe_assessments(records) -> list:
    """One record per (project, article), keeping the highest grade (FA > GA > Other)."""
    best = {}
    for record in records:
        key = (record.project, record.article)
        kept = best.get(key)
        if kept is None or _GRADE_ORDER.index(_grade(record.grade)) > _GRADE_ORDER.index(
            _grade(kept.grade)
        ):
            best[key] = record
    return list(best.values())


def count_quality(records) -> tuple[int, int]:
    """(articles in scope, FA+GA count) for one project's deduplicated records.

    Raises:
        ValueError: on zero articles (scope undefined) or mixed projects.
    """
    articles = 0
    quality = 0
    projects = set()
    for record in records:
        projects.add(record.project)
        articles += 1
        if _grade(record.grade) in ("FA", "GA"):
            quality += 1
    if len(projects) > 1:
        raise ValueError(f"records span multiple projects: {sorted(projects)}")
    if articles == 0:
        raise ValueError("no assessed articles: project scope undefined")
    return articles, quality
