import io
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicomm.config import PipelineConfig
from wikicomm.pipeline import stage_quality
from wikicomm.quality import (
    AssessmentRecord,
    Grade,
    count_quality,
    dedupe_assessments,
    is_main_namespace,
    q_score,
    read_assessments_csv,
    write_quality_csv,
)


def rec(article: str, grade: str, project: str = "P") -> AssessmentRecord:
    return AssessmentRecord(project=project, article=article, grade=Grade.parse(grade))


class TestGradeParse:
    @pytest.mark.parametrize("raw,expected", [
        ("FA", Grade.FA), ("fa", Grade.FA), (" Ga ", Grade.GA),
        ("GA", Grade.GA), ("B", Grade.OTHER), ("Start", Grade.OTHER),
        ("stub", Grade.OTHER), ("", Grade.OTHER), ("A", Grade.OTHER),
    ])
    def test_cases(self, raw, expected):
        assert Grade.parse(raw) is expected


class TestDedupe:
    def test_highest_grade_wins(self):
        records = [rec("X", "GA"), rec("X", "FA"), rec("X", "Start")]
        deduped = dedupe_assessments(records)
        assert len(deduped) == 1 and deduped[0].grade is Grade.FA

    def test_distinct_articles_kept(self):
        assert len(dedupe_assessments([rec("X", "FA"), rec("Y", "FA")])) == 2

    def test_projects_kept_separate(self):
        records = [rec("X", "FA", "P1"), rec("X", "GA", "P2")]
        assert len(dedupe_assessments(records)) == 2


class TestCountQuality:
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


class TestQScore:
    def test_p_zero_is_raw_count(self):
        assert q_score(7, 100, 0.0).score == pytest.approx(7.0)

    def test_p_half(self):
        assert q_score(4, 16, 0.5).score == pytest.approx(1.0)

    def test_p_one_is_fraction(self):
        assert q_score(4, 16, 1.0).score == pytest.approx(0.25)

    def test_log_score(self):
        score = q_score(4, 16, 0.5)
        assert score.log_score == pytest.approx(0.0)
        assert q_score(0, 16, 0.5).log_score is None

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
        values = [q_score(n_quality, n_articles, p).score for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_doubling_scale_behavior(self, n_quality, n_articles):
        n_quality = min(n_quality, n_articles)
        base_half = q_score(n_quality, n_articles, 0.5).score
        base_one = q_score(n_quality, n_articles, 1.0).score
        doubled_half = q_score(2 * n_quality, 2 * n_articles, 0.5).score
        doubled_one = q_score(2 * n_quality, 2 * n_articles, 1.0).score
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


class TestCsv:
    def test_round_trip(self):
        source = io.StringIO(
            "project,article,grade\n"
            "Storms,Hurricane A,FA\n"
            "Storms,Hurricane A,ga\n"
            "Storms,Talk:Hurricane A,FA\n"
            "Storms,Hurricane B,Start\n"
        )
        records = read_assessments_csv(source)
        assert len(records) == 3  # talk-page row filtered out
        deduped = dedupe_assessments(records)
        n_articles, n_quality = count_quality(deduped)
        assert (n_articles, n_quality) == (2, 1)
        out = io.StringIO()
        write_quality_csv([("Storms", q_score(n_quality, n_articles, 0.5))], out)
        assert out.getvalue() == (
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
        assert read_assessments_csv(source) == [rec("Hurricane A", "FA", "Storms")]

    def test_repeated_column_reads_last_occurrence(self):
        source = io.StringIO("project,article,grade,grade\nStorms,A,Start,GA\n")
        assert read_assessments_csv(source) == [rec("A", "GA", "Storms")]

    def test_blank_lines_skipped(self):
        source = io.StringIO("project,article,grade\n\nStorms,A,FA\n\n\nStorms,B,C\n")
        assert read_assessments_csv(source) == [rec("A", "FA", "Storms"), rec("B", "C", "Storms")]

    def test_row_missing_a_required_column(self):
        source = io.StringIO("project,article,grade\nStorms,A,FA\nStorms,B\n")
        with pytest.raises(ValueError, match="line 3"):
            read_assessments_csv(source)

    def test_empty_file(self):
        with pytest.raises(ValueError):
            read_assessments_csv(io.StringIO(""))


def test_unusable_project_name_warns_once_per_row(tmp_path, caplog):
    # Each raw spelling is normalized once; every row with an unusable one
    # still gets its own warning.
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
    assert unusable == ["assessment with unusable project name skipped: 'Wikipedia:'"] * 3
    assert counts == {"Storms": (2, 1)}
