import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import pytest

from wikicomm.client import (
    DataError,
    FetchExhaustedError,
    MediaWikiClient,
    ResponseCache,
    canonical_request,
)
from wikicomm.config import PipelineConfig

from fakes import FakeClock, ScriptSession, page_response, write_legacy_cache_entry


def make_config(tmp_path, **overrides):
    defaults = dict(cache_dir=str(tmp_path / "cache"), output_dir=str(tmp_path / "out"))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def make_client(tmp_path, script, **overrides):
    config = make_config(tmp_path, **overrides)
    fake = FakeClock()
    session = ScriptSession(script, clock=fake)
    client = MediaWikiClient(config, session=session, sleep=fake.sleep, clock=fake.clock)
    return client, session, fake


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path / "c")
        entry = cache.put("key-1", b"payload")
        loaded = cache.get("key-1")
        assert loaded.payload == b"payload"
        assert loaded.fetched_at == entry.fetched_at

    def test_entry_is_one_file_of_header_line_and_raw_payload(self, tmp_path):
        cache = ResponseCache(tmp_path / "c")
        payload = b"line one\nline two\n\xff\x00"
        entry = cache.put("key \u00e9\n", payload)
        digest = hashlib.sha256("key \u00e9\n".encode("utf-8")).hexdigest()
        assert [p.name for p in (tmp_path / "c").iterdir()] == [f"{digest}.entry"]
        header, stored = (tmp_path / "c" / f"{digest}.entry").read_bytes().split(b"\n", 1)
        assert stored == payload
        assert header.decode("ascii") == json.dumps(
            {"fetched_at": entry.fetched_at.isoformat(), "key": "key \u00e9\n"}, sort_keys=True
        )
        assert cache.get("key \u00e9\n") == entry

    def test_interrupted_put_leaves_no_entry(self, tmp_path, monkeypatch):
        directory = tmp_path / "c"
        cache = ResponseCache(directory)

        def fail(src, dst):
            # The whole entry is written aside; the rename is the commit.
            assert Path(src).read_bytes().endswith(b"\npayload")
            assert not Path(dst).exists()
            raise OSError("no space left on device")

        with monkeypatch.context() as patched:
            patched.setattr(os, "replace", fail)
            with pytest.raises(OSError, match="no space"):
                cache.put("key", b"payload")
        assert cache.get("key") is None
        assert list(directory.iterdir()) == []
        cache.put("key", b"payload")
        assert cache.get("key").payload == b"payload"
        assert [p.suffix for p in directory.iterdir()] == [".entry"]

    def test_legacy_two_file_entry_is_read_and_left_untouched(self, tmp_path):
        directory = tmp_path / "c"
        directory.mkdir()
        write_legacy_cache_entry(directory, "key", "2021-02-01T12:30:00+00:00", b"old\npayload")
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        cache = ResponseCache(directory)
        entry = cache.get("key")
        assert entry.payload == b"old\npayload"
        assert entry.fetched_at == datetime(2021, 2, 1, 12, 30, tzinfo=timezone.utc)
        assert cache.put("key", b"new") == entry
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before

    def test_immutable_once_written(self, tmp_path):
        cache = ResponseCache(tmp_path / "c")
        first = cache.put("key", b"one")
        second = cache.put("key", b"two")
        assert second.payload == b"one"
        assert second.fetched_at == first.fetched_at

    def test_canonical_request_is_order_insensitive(self):
        a = canonical_request("u", {"x": "1", "y": "2"})
        b = canonical_request("u", {"y": "2", "x": "1"})
        assert a == b


class TestFetching:
    def test_cache_hit_avoids_network(self, tmp_path):
        body = page_response("User talk:Alice", "text")
        client, session, _ = make_client(tmp_path, [(200, body), (200, body)])
        first = list(client.fetch_user_talk_pages(["Alice"]))
        second = list(client.fetch_user_talk_pages(["Alice"]))
        assert first == second == [{"title": "User talk:Alice", "wikitext": "text"}]
        assert len(session.calls) == 1

    def test_missing_page_skipped(self, tmp_path, caplog):
        script = [
            (200, page_response("User talk:Ghost", missing=True)),
            (200, page_response("User talk:Alice", "hi")),
        ]
        client, _, _ = make_client(tmp_path, script)
        with caplog.at_level("INFO"):
            records = list(client.fetch_user_talk_pages(["Ghost", "Alice"]))
        assert [r["title"] for r in records] == ["User talk:Alice"]
        assert any("does not exist" in message for message in caplog.messages)

    def test_legacy_formatversion_shape(self, tmp_path):
        body = {
            "query": {
                "pages": {"123": {"title": "User talk:Old", "revisions": [{"*": "legacy"}]}}
            }
        }
        client, _, _ = make_client(tmp_path, [(200, body)])
        records = list(client.fetch_user_talk_pages(["Old"]))
        assert records == [{"title": "User talk:Old", "wikitext": "legacy"}]

    def test_blank_page_kept_in_both_shapes(self, tmp_path):
        legacy = {"query": {"pages": {"7": {"title": "User talk:Old", "revisions": [{"*": ""}]}}}}
        blanked = page_response("User talk:New", "")
        client, _, _ = make_client(tmp_path, [(200, legacy), (200, blanked)])
        records = list(client.fetch_user_talk_pages(["Old", "New"]))
        assert records == [
            {"title": "User talk:Old", "wikitext": ""},
            {"title": "User talk:New", "wikitext": ""},
        ]

    def test_throttle_then_success_backs_off(self, tmp_path):
        body = page_response("User talk:A", "x")
        client, session, fake = make_client(
            tmp_path, [(429, {}), (200, body)], request_interval=1.0
        )
        records = list(client.fetch_user_talk_pages(["A"]))
        assert len(records) == 1
        assert len(session.calls) == 2
        # Delivered only after exponential backoff: at least twice the interval.
        assert fake.now >= 2.0 * client.config.request_interval

    def test_maxlag_envelope_is_throttle(self, tmp_path):
        lagged = {"error": {"code": "maxlag", "info": "busy"}}
        body = page_response("User talk:A", "x")
        client, session, _ = make_client(tmp_path, [(200, lagged), (200, body)])
        assert len(list(client.fetch_user_talk_pages(["A"]))) == 1
        assert len(session.calls) == 2

    def test_exhaustion_raises_with_resume_hint(self, tmp_path):
        client, session, _ = make_client(
            tmp_path, [(429, {})] * 3, max_retries=2
        )
        with pytest.raises(FetchExhaustedError, match="resume"):
            list(client.fetch_user_talk_pages(["A"]))
        assert len(session.calls) == 3

    def test_exhausted_fetch_backs_off_only_between_attempts(self, tmp_path):
        client, session, fake = make_client(tmp_path, [(429, {})] * 4, max_retries=3)
        with pytest.raises(FetchExhaustedError):
            list(client.fetch_user_talk_pages(["A"]))
        assert len(session.calls) == 4
        assert fake.sleeps == [2.0, 4.0, 8.0]

    def test_offline_miss_fails_and_hit_serves(self, tmp_path):
        body = page_response("User talk:A", "x")
        client, _, _ = make_client(tmp_path, [(200, body)])
        list(client.fetch_user_talk_pages(["A"]))

        offline = make_config(tmp_path, offline=True)
        offline_client = MediaWikiClient(offline, session=None)
        assert list(offline_client.fetch_user_talk_pages(["A"])) == [
            {"title": "User talk:A", "wikitext": "x"}
        ]
        with pytest.raises(FetchExhaustedError, match="offline"):
            list(offline_client.fetch_user_talk_pages(["B"]))

    def test_request_spacing_respects_interval(self, tmp_path):
        script = [(200, page_response(f"User talk:U{i}", "x")) for i in range(5)]
        client, session, _ = make_client(tmp_path, script, request_interval=2.0)
        list(client.fetch_user_talk_pages([f"U{i}" for i in range(5)]))
        times = [call["at"] for call in session.calls]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 2.0 - 1e-9 for gap in gaps)


def assessments_response(rows, cont=None):
    pages = []
    for title, projects in rows:
        pages.append(
            {
                "title": title,
                "pageassessments": {
                    project: {"class": grade} for project, grade in projects.items()
                },
            }
        )
    body = {"query": {"pages": pages}}
    if cont:
        body["continue"] = cont
    return body


class TestAssessments:
    def test_paginated_rows_concatenated_exactly_once(self, tmp_path):
        page1 = assessments_response(
            [("Hurricane A", {"Tropical storms": "FA"})],
            cont={"gapcontinue": "Hurricane B", "continue": "gapcontinue||"},
        )
        page2 = assessments_response(
            [("Hurricane B", {"Tropical storms": "GA", "Weather": "B"})]
        )
        client, session, _ = make_client(tmp_path, [(200, page1), (200, page2)])
        rows = list(client.fetch_assessments())
        assert rows == [
            {"project": "Tropical storms", "article": "Hurricane A", "grade": "FA"},
            {"project": "Tropical storms", "article": "Hurricane B", "grade": "GA"},
            {"project": "Weather", "article": "Hurricane B", "grade": "B"},
        ]
        assert "gapcontinue" in session.calls[1]["params"]

    def test_empty_project_yields_no_rows(self, tmp_path):
        client, _, _ = make_client(tmp_path, [(200, {"query": {"pages": []}})])
        assert list(client.fetch_assessments()) == []

    def test_repeated_continuation_token_aborts(self, tmp_path):
        cont = {"gapcontinue": "Stuck", "continue": "gapcontinue||"}
        page = assessments_response([("A", {"P": "FA"})], cont=cont)
        stuck = assessments_response([("B", {"P": "GA"})], cont=cont)
        client, _, _ = make_client(tmp_path, [(200, page), (200, stuck)])
        with pytest.raises(DataError, match="continuation loop"):
            list(client.fetch_assessments())
