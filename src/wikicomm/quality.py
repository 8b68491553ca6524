"""Project quality scores from article assessment data.

A project's raw quality output is the number of its Featured and Good
Articles. Because project scopes differ by orders of magnitude, the score
family Q_p divides that count by scope^p for p in [0, 1]; p = 1/2 (divide
by the square root of scope) is the variance-stabilizing middle case used
downstream.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import IO, Iterable, Optional

__all__ = [
    "Grade",
    "AssessmentRecord",
    "QualityScore",
    "dedupe_assessments",
    "count_quality",
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


class Grade(enum.Enum):
    FA = "FA"
    GA = "GA"
    OTHER = "Other"

    @classmethod
    def parse(cls, raw: str) -> "Grade":
        norm = raw.strip().upper()
        if norm == "FA":
            return cls.FA
        if norm == "GA":
            return cls.GA
        return cls.OTHER


_GRADE_RANK = {Grade.FA: 2, Grade.GA: 1, Grade.OTHER: 0}
# Looked up once: on Python 3.11 every ``Grade.FA`` runs a descriptor.
_QUALITY_GRADES = (Grade.FA, Grade.GA)


@dataclass(frozen=True, slots=True)
class AssessmentRecord:
    """One article assessment within one project's scope."""

    project: str
    article: str
    grade: Grade


@dataclass(frozen=True)
class QualityScore:
    """Quality-page count and its scope-normalized Q_p value for one project."""

    n_articles: int
    n_quality: int
    p: float
    score: float
    log_score: Optional[float]


def is_main_namespace(title: str) -> bool:
    """True unless the title carries a recognized non-main namespace prefix."""
    ns, sep, rest = title.partition(":")
    if not sep or not rest:
        return True
    return ns.strip().replace("_", " ").lower() not in _NON_MAIN_NAMESPACES


def dedupe_assessments(records: Iterable[AssessmentRecord]) -> list[AssessmentRecord]:
    """One record per (project, article), keeping the highest grade (FA > GA > Other)."""
    best: dict[tuple[str, str], AssessmentRecord] = {}
    for record in records:
        key = (record.project, record.article)
        kept = best.get(key)
        if kept is None or _GRADE_RANK[record.grade] > _GRADE_RANK[kept.grade]:
            best[key] = record
    return list(best.values())


def count_quality(records: Iterable[AssessmentRecord]) -> tuple[int, int]:
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
        if record.grade in _QUALITY_GRADES:
            quality += 1
    if len(projects) > 1:
        raise ValueError(f"records span multiple projects: {sorted(projects)}")
    if articles == 0:
        raise ValueError("no assessed articles: project scope undefined")
    return articles, quality


def q_score(n_quality: int, n_articles: int, p: float = 0.5) -> QualityScore:
    """Q_p = n_quality / n_articles**p; the log score is defined when positive.

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
    score = n_quality / n_articles**p
    return QualityScore(
        n_articles=n_articles,
        n_quality=n_quality,
        p=p,
        score=score,
        log_score=math.log(score) if n_quality >= 1 else None,
    )


def read_assessments_csv(source: IO[str]) -> list[AssessmentRecord]:
    """Read ``project,article,grade`` rows; grades are case-insensitive.

    Titles with a recognized non-main namespace prefix are skipped (project
    scope covers encyclopedia articles only); titles without namespace
    information pass through. The columns may come in any order and among
    others; blank lines are skipped.

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
    project_at, article_at, grade_at = (column[name] for name in required)
    grades: dict[str, Grade] = {}
    records = []
    for row in reader:
        if not row:
            continue
        try:
            project, article, raw_grade = row[project_at], row[article_at], row[grade_at]
        except IndexError:
            raise ValueError(
                f"assessments CSV line {reader.line_num}: row lacks a required column"
            ) from None
        if not is_main_namespace(article):
            continue
        grade = grades.get(raw_grade)
        if grade is None:
            grade = grades[raw_grade] = Grade.parse(raw_grade)
        records.append(AssessmentRecord(project, article, grade))
    return records


def write_quality_csv(rows: Iterable[tuple[str, QualityScore]], out: IO[str]) -> None:
    """Write the per-project quality CSV."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["project", "n_articles", "n_quality", "q_score"])
    for project, score in rows:
        writer.writerow(
            [project, score.n_articles, score.n_quality, f"{score.score:.6f}"]
        )
