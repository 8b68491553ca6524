"""Project quality scores from article assessment data.

A project's raw quality output is the number of its Featured and Good
Articles. Because project scopes differ by orders of magnitude, the score
family Q_p divides that count by scope^p for p in [0, 1]; p = 1/2 (divide
by the square root of scope) is the variance-stabilizing middle case used
downstream. Only whether an article is FA or GA matters, so the reader
hands on each grade as a rank: FA 2, GA 1, any other grade 0.
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Iterator

__all__ = [
    "q_score",
    "read_assessments_csv",
    "write_quality_csv",
]

# Recognized namespace prefixes; titles carrying one are not encyclopedia
# articles and fall outside a project's scope.
_NON_MAIN_NAMESPACES = {
    "talk", "user", "user talk", "wikipedia", "wikipedia talk", "file",
    "file talk", "template", "template talk", "category", "category talk",
    "portal", "portal talk", "draft", "draft talk", "help", "help talk",
    "mediawiki", "mediawiki talk", "module", "module talk", "special", "media",
}


# Normalized grade -> rank. A (project, article) assessed several times
# counts once, at its highest rank.
_RANKS = {"FA": 2, "GA": 1}


def is_main_namespace(title: str) -> bool:
    """True unless the title carries a recognized non-main namespace prefix."""
    ns, sep, rest = title.partition(":")
    if not sep or not rest:
        return True
    return ns.strip().replace("_", " ").lower() not in _NON_MAIN_NAMESPACES


def q_score(n_quality: int, n_articles: int, p: float = 0.5) -> float:
    """Q_p = n_quality / n_articles**p.

    Raises:
        ValueError: if p is outside [0, 1] or n_articles < 1 or counts are
            inconsistent.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n_articles < 1:
        raise ValueError(f"n_articles must be >= 1, got {n_articles}")
    if not 0 <= n_quality <= n_articles:
        raise ValueError(f"need 0 <= n_quality <= n_articles, got {n_quality}/{n_articles}")
    return n_quality / n_articles**p


def read_assessments_csv(source: IO[str]) -> Iterator[tuple[str, str, int]]:
    """Stream ``(project, article, rank)`` from ``project,article,grade`` rows.

    A grade's rank is 2 for FA, 1 for GA and 0 for any other grade, compared
    after stripping and upper-casing it. Titles with a recognized non-main
    namespace prefix are skipped (project scope covers encyclopedia articles
    only); titles without namespace information pass through. The columns
    may come in any order and among others; blank lines are skipped. The
    header is checked by this call, the rows as they are read.

    Raises:
        ValueError: if a required column is missing from the header or a row.
    """
    reader = csv.reader(source)
    header = next(reader, None)
    required = ("project", "article", "grade")
    if header is None or not set(required).issubset(header):
        raise ValueError(f"assessments CSV must have columns {sorted(required)}")
    # A repeated column name reads its last occurrence, as DictReader did.
    column = {name: i for i, name in enumerate(header)}
    return _assessment_rows(reader, *(column[name] for name in required))


def _assessment_rows(
    reader, project_at: int, article_at: int, grade_at: int
) -> Iterator[tuple[str, str, int]]:
    # Rows far outnumber the distinct raw spellings of grades.
    ranks: dict[str, int] = {}
    for row in reader:
        if not row:
            continue
        try:
            project, article, raw_grade = row[project_at], row[article_at], row[grade_at]
        except IndexError:
            raise ValueError(
                f"assessments CSV line {reader.line_num}: row lacks a required column"
            ) from None
        # A title without a colon carries no namespace prefix.
        if ":" in article and not is_main_namespace(article):
            continue
        rank = ranks.get(raw_grade)
        if rank is None:
            rank = ranks[raw_grade] = _RANKS.get(raw_grade.strip().upper(), 0)
        yield project, article, rank


def write_quality_csv(rows: Iterable[tuple[str, int, int, float]], out: IO[str]) -> None:
    """Write the per-project quality CSV from ``(project, n_articles, n_quality, Q_p)``."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["project", "n_articles", "n_quality", "q_score"])
    for project, n_articles, n_quality, score in rows:
        writer.writerow([project, n_articles, n_quality, f"{score:.6f}"])
