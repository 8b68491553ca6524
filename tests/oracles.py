"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately coded on a different route than the library:
graph metrics from explicit per-node dictionaries and a hand-looped entropy,
networks from a rescan of every post per project, talk-page posts from the
first parser (a regex scan of each line prefix, ``datetime`` plus
``strftime`` per post, one ``json.dumps`` per record),
OLS through numpy's LAPACK-backed inverse of the normal equations, the
incomplete beta from its hypergeometric power series instead of the
continued fraction, and quality counts from a list of assessment records
deduplicated and then counted one project at a time.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from datetime import datetime, timezone

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


def direct_networks(posts, members_by_project, require_both_members=True):
    """Per project: (node set, {(u, v): weight} with u < v), rescanning every post.

    Each project's members are nodes; a post counts when its author and page
    owner differ and both (or, without ``require_both_members``, either) are
    members of that project.
    """
    networks = {}
    for project, members in members_by_project.items():
        member_set = set(members)
        nodes = set(member_set)
        edges: dict[tuple[str, str], int] = {}
        for author, owner in posts:
            if author == owner:
                continue
            inside = [author in member_set, owner in member_set]
            if (all(inside) if require_both_members else any(inside)):
                key = (min(author, owner), max(author, owner))
                edges[key] = edges.get(key, 0) + 1
                nodes.update(key)
        networks[project] = (nodes, edges)
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


def _ref_signatures(text: str):
    """(author, datetime, end) per signature: every link in the line prefix, last wins."""
    for ts_match in _REF_TIMESTAMP_RE.finditer(text):
        line_start = text.rfind("\n", 0, ts_match.start()) + 1
        user = None
        for link in _REF_USER_LINK_RE.finditer(text[line_start : ts_match.start()]):
            user = _ref_canonical(link.group(1))
        if not user:
            continue
        try:
            ts = datetime(
                int(ts_match.group(5)), _REF_MONTHS[ts_match.group(4)],
                int(ts_match.group(3)), int(ts_match.group(1)), int(ts_match.group(2)),
                tzinfo=timezone.utc,
            )
        except ValueError:
            continue
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


# One assessment row; ``grade`` is a ``wikicomm.quality.Grade``, ordered here
# by its value rather than by the library's rank table.
Assessment = namedtuple("Assessment", "project article grade")
_GRADE_ORDER = ("Other", "GA", "FA")


def dedupe_assessments(records) -> list:
    """One record per (project, article), keeping the highest grade (FA > GA > Other)."""
    best = {}
    for record in records:
        key = (record.project, record.article)
        kept = best.get(key)
        if kept is None or _GRADE_ORDER.index(record.grade.value) > _GRADE_ORDER.index(
            kept.grade.value
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
        if record.grade.value in ("FA", "GA"):
            quality += 1
    if len(projects) > 1:
        raise ValueError(f"records span multiple projects: {sorted(projects)}")
    if articles == 0:
        raise ValueError("no assessed articles: project scope undefined")
    return articles, quality
