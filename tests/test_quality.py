import csv
import io
import logging
import math
import tempfile
import tracemalloc
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wikicomm.pipeline as pipeline
from wikicomm.config import PipelineConfig
from wikicomm.pipeline import stage_quality
from wikicomm.quality import (
    is_main_namespace,
    q_score,
    read_assessments_csv,
)

from oracles import Assessment, count_quality, dedupe_assessments


def rec(article: str, grade: str, project: str = "P") -> Assessment:
    return Assessment(project=project, article=article, grade=grade)


def write_assessments(directory: Path, rows) -> None:
    """``assessments.csv`` in ``directory`` from ``(project, article, raw grade)`` rows."""
    with open(directory / "assessments.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["project", "article", "grade"])
        writer.writerows(rows)


def oracle_counts(records) -> dict[str, tuple[int, int]]:
    """Per project, the reference (articles, FA+GA) of normalized records."""
    by_project = defaultdict(list)
    for record in dedupe_assessments(records):
        by_project[record.project].append(record)
    return {project: count_quality(by_project[project]) for project in sorted(by_project)}


@pytest.mark.parametrize("raw,rank", [
    ("FA", 2), ("fa", 2), (" Ga ", 1), ("GA", 1), ("B", 0), ("Start", 0), ("stub", 0), ("", 0),
    ("A", 0),
])
def test_grade_read_as_rank(raw, rank):
    # The second row reads the rank memoised for the first row's spelling.
    source = io.StringIO(f"project,article,grade\nP,X,{raw}\nP,Y,{raw}\n")
    assert list(read_assessments_csv(source)) == [("P", "X", rank), ("P", "Y", rank)]


class TestDedupe:
    """Self-tests of the reference dedupe; ``TestStageMatchesOracle`` runs each case."""

    def test_highest_grade_wins(self):
        records = [rec("X", "GA"), rec("X", "FA"), rec("X", "Start")]
        deduped = dedupe_assessments(records)
        assert len(deduped) == 1 and deduped[0].grade == "FA"

    def test_distinct_articles_kept(self):
        assert len(dedupe_assessments([rec("X", "FA"), rec("Y", "FA")])) == 2

    def test_projects_kept_separate(self):
        records = [rec("X", "FA", "P1"), rec("X", "GA", "P2")]
        assert len(dedupe_assessments(records)) == 2


class TestCountQuality:
    """Self-tests of the reference count, including its guards against misuse."""

    def test_basic_counts(self):
        records = [rec(f"a{i}", "Other") for i in range(93)]
        records += [rec(f"fa{i}", "FA") for i in range(7)]
        assert count_quality(records) == (100, 7)

    def test_dedupe_then_count(self):
        records = dedupe_assessments([rec("X", "FA"), rec("X", "GA")])
        assert count_quality(records) == (1, 1)

    def test_zero_articles_error(self):
        with pytest.raises(ValueError):
            count_quality([])

    def test_mixed_projects_error(self):
        with pytest.raises(ValueError):
            count_quality([rec("X", "FA", "P1"), rec("Y", "GA", "P2")])


STAGE_CASES = {
    "highest_grade_wins": (
        [rec("X", "GA"), rec("X", "FA"), rec("X", "Start")], {"P": (1, 1)}
    ),
    "distinct_articles_kept": ([rec("X", "FA"), rec("Y", "FA")], {"P": (2, 2)}),
    "projects_kept_separate": (
        [rec("X", "FA", "P1"), rec("X", "GA", "P2")], {"P1": (1, 1), "P2": (1, 1)}
    ),
    "basic_counts": (
        [rec(f"a{i}", "Other") for i in range(93)] + [rec(f"fa{i}", "FA") for i in range(7)],
        {"P": (100, 7)},
    ),
    "dedupe_then_count": ([rec("X", "FA"), rec("X", "GA")], {"P": (1, 1)}),
}


class TestStageMatchesOracle:
    @pytest.mark.parametrize("case", sorted(STAGE_CASES))
    def test_named_cases(self, tmp_path, case):
        records, expected = STAGE_CASES[case]
        write_assessments(tmp_path, records)
        counts = stage_quality(PipelineConfig(output_dir=str(tmp_path)))
        assert counts == expected == oracle_counts(records)

    # Raw spelling -> canonical project, None where no name is left.
    SPELLINGS = {
        "Storms": "Storms",
        "WikiProject Storms": "Storms",
        "Wikipedia:WikiProject_Storms": "Storms",
        "storms": "Storms",
        "Hurricanes": "Storms",  # alias
        "wikiProject hurricanes": "Storms",  # alias
        "Birds": "Birds",
        "WikiProject Birds": "Birds",
        "Wikipedia: WikiProject  Birds": "Birds",
        "Jazz": "Jazz",
        "jazz_": "Jazz",
        "Moss": "Moss",
        "Wikipedia:": None,
        "WikiProject": None,
        "": None,
    }
    ALIASES = {"Hurricanes": "Storms"}
    # Title -> whether it is a main-namespace article.
    TITLES = {
        "A": True,
        "B": True,
        "C": True,
        "Star Wars: Episode IV": True,
        "Talk:A": False,
        "Template:B": False,
        "User_talk:C": False,
    }
    GRADES = ["FA", "fa", "Fa", "GA", " Ga ", "gA", "B", "Start", "stub", ""]

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(sorted(SPELLINGS)),
                st.sampled_from(sorted(TITLES)),
                st.sampled_from(GRADES),
            ),
            max_size=40,
        ),
        configured=st.lists(
            st.sampled_from(["Storms", "WikiProject Birds", "Hurricanes", "jazz_"]), max_size=3
        ),
        p=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_assessments(self, rows, configured, p):
        wanted = {self.SPELLINGS[name] for name in configured}
        records = [
            Assessment(self.SPELLINGS[raw], article, grade)
            for raw, article, grade in rows
            if self.SPELLINGS[raw] is not None
            and (not wanted or self.SPELLINGS[raw] in wanted)
            and self.TITLES[article]
        ]
        expected = oracle_counts(records)
        expected_csv = "project,n_articles,n_quality,q_score\n" + "".join(
            f"{project},{n_articles},{n_quality},{n_quality / n_articles**p:.6f}\n"
            for project, (n_articles, n_quality) in expected.items()
        )
        with tempfile.TemporaryDirectory() as tmp:
            write_assessments(Path(tmp), rows)
            config = PipelineConfig(
                output_dir=tmp, projects=configured, project_aliases=self.ALIASES, p_exponent=p
            )
            counts = stage_quality(config)
            written = (Path(tmp) / "quality.csv").read_text(encoding="utf-8")
        assert counts == expected
        assert written == expected_csv


class TestQScore:
    def test_p_zero_is_raw_count(self):
        assert q_score(7, 100, 0.0) == pytest.approx(7.0)

    def test_p_half(self):
        assert q_score(4, 16, 0.5) == pytest.approx(1.0)

    def test_p_one_is_fraction(self):
        assert q_score(4, 16, 1.0) == pytest.approx(0.25)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            q_score(1, 10, 1.5)
        with pytest.raises(ValueError):
            q_score(1, 10, -0.1)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            q_score(1, 0, 0.5)
        with pytest.raises(ValueError):
            q_score(5, 4, 0.5)

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=2, max_value=100_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_in_p(self, n_quality, n_articles):
        n_quality = min(n_quality, n_articles)
        grid = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        values = [q_score(n_quality, n_articles, p) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_doubling_scale_behavior(self, n_quality, n_articles):
        n_quality = min(n_quality, n_articles)
        base_half = q_score(n_quality, n_articles, 0.5)
        base_one = q_score(n_quality, n_articles, 1.0)
        doubled_half = q_score(2 * n_quality, 2 * n_articles, 0.5)
        doubled_one = q_score(2 * n_quality, 2 * n_articles, 1.0)
        assert doubled_half == pytest.approx(math.sqrt(2) * base_half, rel=1e-12)
        assert doubled_one == pytest.approx(base_one, rel=1e-12)


class TestNamespaceFilter:
    @pytest.mark.parametrize("title,expected", [
        ("Hurricane Katrina", True),
        ("Star Wars: Episode IV", True),
        ("Talk:Hurricane Katrina", False),
        ("Wikipedia:Manual of Style", False),
        ("Template:Infobox storm", False),
        ("Category:Storms", False),
        ("User_talk:Alice", False),
    ])
    def test_cases(self, title, expected):
        assert is_main_namespace(title) is expected

    def test_row_filter_agrees_with_is_main_namespace(self):
        # The reader calls is_main_namespace only for titles holding a colon.
        titles = ["Foo", ":Foo", "Foo:", "Talk:X", "A:B:C", "Wikipedia_talk:X", "Template : X"]
        source = io.StringIO()
        writer = csv.writer(source, lineterminator="\n")
        writer.writerow(["project", "article", "grade"])
        writer.writerows(["P", title, "GA"] for title in titles)
        source.seek(0)
        kept = [article for _, article, _ in read_assessments_csv(source)]
        assert kept == [title for title in titles if is_main_namespace(title)]
        assert kept == ["Foo", ":Foo", "Foo:", "A:B:C"]


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            ("Storms", "Hurricane A", "FA"),
            ("Storms", "Hurricane A", "ga"),
            ("Storms", "Talk:Hurricane A", "FA"),
            ("Storms", "Hurricane B", "Start"),
        ]
        write_assessments(tmp_path, rows)
        with open(tmp_path / "assessments.csv", encoding="utf-8") as f:
            assert list(read_assessments_csv(f)) == [  # talk-page row filtered out
                ("Storms", "Hurricane A", 2),
                ("Storms", "Hurricane A", 1),
                ("Storms", "Hurricane B", 0),
            ]
        # Hurricane A counts once, at FA; Hurricane B is no quality article.
        stage_quality(PipelineConfig(output_dir=str(tmp_path)))
        assert (tmp_path / "quality.csv").read_text(encoding="utf-8") == (
            "project,n_articles,n_quality,q_score\nStorms,2,1,0.707107\n"
        )

    def test_missing_columns(self):
        with pytest.raises(ValueError):
            read_assessments_csv(io.StringIO("a,b\n1,2\n"))

    def test_columns_in_any_order_with_extra_columns(self):
        source = io.StringIO(
            "grade,source,article,project\n"
            "fa,bot,Hurricane A,Storms\n"
            "Start,,Talk:Hurricane A,Storms\n"
        )
        assert list(read_assessments_csv(source)) == [("Storms", "Hurricane A", 2)]

    def test_repeated_column_reads_last_occurrence(self):
        source = io.StringIO("project,article,grade,grade\nStorms,A,Start,GA\n")
        assert list(read_assessments_csv(source)) == [("Storms", "A", 1)]

    def test_blank_lines_skipped(self):
        source = io.StringIO("project,article,grade\n\nStorms,A,FA\n\n\nStorms,B,C\n")
        assert list(read_assessments_csv(source)) == [
            ("Storms", "A", 2), ("Storms", "B", 0)
        ]

    def test_row_missing_a_required_column(self):
        source = io.StringIO("project,article,grade\nStorms,A,FA\nStorms,B\n")
        with pytest.raises(ValueError, match="line 3"):
            list(read_assessments_csv(source))

    def test_header_checked_at_call_rows_read_lazily(self):
        # The header error comes from the call; a bad row only once it is reached.
        with pytest.raises(ValueError, match="must have columns"):
            read_assessments_csv(io.StringIO("project,article\nStorms,A\n"))
        rows = read_assessments_csv(
            io.StringIO("project,article,grade\nStorms,A,FA\nStorms,B\n")
        )
        assert next(rows) == ("Storms", "A", 2)
        with pytest.raises(ValueError, match="line 3"):
            next(rows)

    def test_empty_file(self):
        with pytest.raises(ValueError):
            read_assessments_csv(io.StringIO(""))


def test_unusable_project_name_warns_once_per_spelling(tmp_path, caplog):
    # Each raw spelling is normalized once, and an unusable one is reported
    # once, however many rows carry it.
    (tmp_path / "assessments.csv").write_text(
        "project,article,grade\n"
        "Wikipedia:,A,FA\n"
        "Storms,A,FA\n"
        "Wikipedia:,B,GA\n"
        "WikiProject Storms,B,Start\n"
        "Wikipedia:,C,B\n",
        encoding="utf-8",
    )
    config = PipelineConfig(output_dir=str(tmp_path), projects=["Storms"])
    with caplog.at_level(logging.WARNING, logger="wikicomm.pipeline"):
        counts = stage_quality(config)
    unusable = [m for m in caplog.messages if "unusable project name" in m]
    assert unusable == ["assessment with unusable project name skipped: 'Wikipedia:'"]
    assert counts == {"Storms": (2, 1)}


def test_failed_quality_write_keeps_previous_output(tmp_path, monkeypatch):
    write_assessments(tmp_path, [("Storms", "A", "FA"), ("Storms", "B", "Start")])
    config = PipelineConfig(output_dir=str(tmp_path))
    stage_quality(config)
    before = (tmp_path / "quality.csv").read_bytes()

    def write_header_then_fail(out, header, rows):
        out.write(",".join(header) + "\n")
        raise OSError("disk full")

    write_assessments(tmp_path, [("Storms", "A", "GA")])
    monkeypatch.setattr(pipeline, "_write_csv", write_header_then_fail)
    with pytest.raises(OSError, match="disk full"):
        stage_quality(config)
    assert (tmp_path / "quality.csv").read_bytes() == before
    assert sorted(tmp_path.glob("*.tmp")) == []


class TestScale:
    """The quality stage over 100k rows holds one entry per (project, article), not per row."""

    PROJECTS = 50
    ARTICLES = 500  # per project
    ASSESSMENTS = 4  # per article, at different grades

    # An article's grades, by article number modulo 4: best FA, GA, Other, Other.
    GRADES = [("Start", "GA", "fa", "B"), ("B", "ga", "Start", "stub"),
              ("Start", "B", "C", "stub"), ("stub", "C", "B", "Start")]

    def test_peak_memory_bounded(self, tmp_path):
        write_assessments(
            tmp_path,
            (
                (f"Project {p}", f"Article {a}", self.GRADES[a % 4][k])
                for k in range(self.ASSESSMENTS)
                for p in range(self.PROJECTS)
                for a in range(self.ARTICLES)
            ),
        )
        config = PipelineConfig(output_dir=str(tmp_path))
        tracemalloc.start()
        try:
            counts = stage_quality(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == {
            f"Project {p}": (self.ARTICLES, self.ARTICLES // 2) for p in range(self.PROJECTS)
        }
        # Measured: 2.2 MB; 26.5 MB when the stage held every row in lists.
        assert peak < 8 * 2**20
