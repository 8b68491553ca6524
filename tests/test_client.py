import builtins
import contextlib
import errno
import hashlib
import json
import os
import re
from pathlib import Path

import pytest
import requests

import wikicomm.pipeline as pipeline
from wikicomm.cli import EXIT_DATA, EXIT_NETWORK, main
from wikicomm.client import (
    DataError,
    PAGE_QUERY,
    FetchExhaustedError,
    MediaWikiClient,
    ResponseCache,
    canonical_request,
)
from wikicomm.config import PipelineConfig

from fakes import (
    FakeClock,
    FakeResponse,
    RoutingSession,
    ScriptSession,
    page_response,
)


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


def record(entry):
    """The bytes of ``entry``'s record in a pack."""
    header = {"fetched_at": entry.fetched_at.isoformat(), "key": entry.key,
              "size": len(entry.payload)}
    return json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + entry.payload


class TornFile:
    """A file whose ``write`` stores half the data, then fails as a full disk does."""

    def __init__(self, f):
        self._f = f

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._f.close()

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@contextlib.contextmanager
def tear_writes(monkeypatch):
    """Within the block, every file opened to append or create tears its writes."""
    real_open = builtins.open

    def open_torn(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return TornFile(f) if mode in ("ab", "xb") else f

    with monkeypatch.context() as patched:
        patched.setattr(builtins, "open", open_torn)
        yield


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
        other = cache.put("other", b"{}")
        [pack] = (tmp_path / "c").iterdir()
        assert re.fullmatch(rf"\d{{8}}T\d{{12}}Z-{os.getpid()}\.pack", pack.name)
        assert pack.read_bytes() == record(entry) + record(other)
        assert record(entry).startswith(
            json.dumps(
                {"fetched_at": entry.fetched_at.isoformat(), "key": "key \u00e9\n", "size": 20},
                sort_keys=True,
            ).encode("ascii")
            + b"\n"
        )
        assert cache.get("key \u00e9\n") == entry
        assert ResponseCache(tmp_path / "c").get("key \u00e9\n") == entry

    def test_interrupted_put_leaves_no_entry(self, tmp_path, monkeypatch):
        directory = tmp_path / "c"
        cache = ResponseCache(directory)
        with tear_writes(monkeypatch), pytest.raises(OSError, match="No space"):
            cache.put("key", b"payload")
        [torn] = directory.iterdir()
        assert torn.stat().st_size > 0
        assert cache.get("key") is None
        assert ResponseCache(directory).get("key") is None
        entry = cache.put("key", b"payload")
        assert cache.get("key") == entry
        assert ResponseCache(directory).get("key") == entry
        assert len(list(directory.iterdir())) == 2

    @pytest.mark.parametrize("cut", ["inside_payload", "inside_header", "unparsable_header"])
    def test_torn_record_ends_its_pack(self, tmp_path, caplog, cut):
        directory = tmp_path / "c"
        cache = ResponseCache(directory)
        first = cache.put("first", b"one")
        second = cache.put("second", b"two two two")
        [pack] = directory.iterdir()
        at = len(record(first))
        torn = {
            "inside_payload": record(second)[:-1],
            "inside_header": record(second)[:10],
            "unparsable_header": b"not a header\n" + b"two two two",
        }[cut]
        pack.write_bytes(record(first) + torn)
        with caplog.at_level("WARNING"):
            reopened = ResponseCache(directory)
        assert reopened.get("first") == first
        assert reopened.get("second") is None
        assert caplog.messages == [f"cache pack {pack}: torn record at offset {at}, rest ignored"]
        again = reopened.put("second", b"two two two")
        assert len(list(directory.iterdir())) == 2
        assert ResponseCache(directory).get("second") == again

    def test_put_after_a_failed_write_starts_a_new_pack(self, tmp_path, monkeypatch):
        directory = tmp_path / "c"
        cache = ResponseCache(directory)
        a = cache.put("a", b"1")
        with tear_writes(monkeypatch), pytest.raises(OSError, match="No space"):
            cache.put("b", b"2")
        c = cache.put("c", b"3")
        first, second = sorted(directory.iterdir())
        assert first.read_bytes().startswith(record(a))
        assert second.read_bytes() == record(c)
        reopened = ResponseCache(directory)
        assert [reopened.get(key) for key in "abc"] == [a, None, c]

    def test_two_caches_write_two_packs_and_the_first_record_wins(self, tmp_path):
        directory = tmp_path / "c"
        one, two = ResponseCache(directory), ResponseCache(directory)
        first = one.put("key", b"first")
        later = two.put("key", b"later")
        assert later.payload == b"later"  # two was built before one wrote
        assert len(list(directory.iterdir())) == 2
        assert ResponseCache(directory).get("key") == first

    def test_miss_opens_no_file_and_put_opens_only_its_pack(self, tmp_path, monkeypatch):
        cache = ResponseCache(tmp_path / "c")
        cache.put("present", b"x")
        [pack] = (tmp_path / "c").iterdir()
        real_open, opened = builtins.open, []

        def recording_open(file, mode="r", *args, **kwargs):
            opened.append((os.fspath(file), mode))
            return real_open(file, mode, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the cache looked at the disk")

        with monkeypatch.context() as patched:
            patched.setattr(builtins, "open", recording_open)
            patched.setattr(os, "stat", refuse)
            missed = cache.get("absent")
            opened_by_get = list(opened)
            cache.put("absent", b"y")
        assert missed is None
        assert opened_by_get == []
        assert opened == [(str(pack), "ab")]

    def test_pre_pack_files_are_ignored_and_kept(self, tmp_path):
        # Before packs, an answer was a <sha256>.entry (a header line without
        # a size, then the payload), and before that a <sha256>.body beside a
        # <sha256>.meta.json. The cache reads neither and never touches them.
        directory = tmp_path / "c"
        kept = ResponseCache(directory).put("packed", b"packed")
        for key, suffixes in [("entry", [".entry"]), ("pair", [".body", ".meta.json"])]:
            stem = hashlib.sha256(key.encode("utf-8")).hexdigest()
            header = json.dumps({"fetched_at": "2021-02-01T12:30:00+00:00", "key": key},
                                sort_keys=True)
            files = {".entry": header.encode("ascii") + b"\nold", ".body": b"old",
                     ".meta.json": header.encode("ascii")}
            for suffix in suffixes:
                (directory / f"{stem}{suffix}").write_bytes(files[suffix])
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        cache = ResponseCache(directory)
        assert cache.get("packed") == kept
        assert cache.get("entry") is None
        assert cache.get("pair") is None
        assert cache.put("entry", b"new").payload == b"new"
        assert ResponseCache(directory).get("entry").payload == b"new"
        for name, data in before.items():
            assert (directory / name).read_bytes() == data

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

    def test_blank_page_kept(self, tmp_path):
        client, _, _ = make_client(tmp_path, [(200, page_response("User talk:New", ""))])
        records = list(client.fetch_user_talk_pages(["New"]))
        assert records == [{"title": "User talk:New", "wikitext": ""}]

    def test_page_without_content_skipped(self, tmp_path, caplog):
        hidden = {"query": {"pages": [{"title": "User talk:H", "revisions": [{"slots": {}}]}]}}
        script = [(200, hidden), (200, page_response("User talk:Alice", "hi"))]
        client, _, _ = make_client(tmp_path, script)
        with caplog.at_level("WARNING"):
            records = list(client.fetch_user_talk_pages(["H", "Alice"]))
        assert [r["title"] for r in records] == ["User talk:Alice"]
        assert caplog.messages == ["page has no retrievable content, skipped: User talk:H"]

    def test_project_pages_are_the_main_page_and_two_subpages(self, tmp_path):
        config = make_config(tmp_path)
        session = RoutingSession(lambda params: (200, page_response(params["titles"], "x")))
        client = MediaWikiClient(config, session=session, sleep=lambda s: None)
        records = list(client.fetch_project_pages("Birds"))
        titles = ["Wikipedia:WikiProject Birds", "Wikipedia:WikiProject Birds/Members",
                  "Wikipedia:WikiProject Birds/Participants"]
        assert [call["titles"] for call in session.calls] == titles
        assert records == [{"title": title, "wikitext": "x"} for title in titles]

    def test_cache_keys_are_those_of_earlier_versions(self, tmp_path):
        # Caches written before the queries moved into the client, and the
        # ``crawl`` replay, hit only if every key stays byte-identical.
        assessments = assessments_response([])
        script = [(200, page_response("User talk:A", "x")), (200, assessments)]
        client, session, _ = make_client(tmp_path, script)
        list(client.fetch_user_talk_pages(["A"]))
        list(client.fetch_assessments())
        keys = [canonical_request(client.config.api_base_url, call["params"])
                for call in session.calls]
        assert keys == [
            '{"params": {"action": "query", "format": "json", "formatversion": "2", '
            '"prop": "revisions", "rvprop": "content", "rvslots": "main", '
            '"titles": "User talk:A"}, "url": "https://en.wikipedia.org/w/api.php"}',
            '{"params": {"action": "query", "format": "json", "formatversion": "2", '
            '"gaplimit": "200", "generator": "allpages", "palimit": "max", '
            '"prop": "pageassessments"}, "url": "https://en.wikipedia.org/w/api.php"}',
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


def raises(exc):
    """A script item whose ``get`` fails in transport, before any response."""

    def fail(params):
        raise exc

    return fail


def cached_keys(client):
    return [p.name for p in Path(client.config.cache_dir).iterdir()]


class TestTransportFailures:
    def test_connection_error_then_timeout_then_success(self, tmp_path):
        body = page_response("User talk:A", "x")
        script = [
            raises(requests.ConnectionError("connection refused")),
            raises(requests.Timeout("read timed out")),
            (200, body),
        ]
        client, session, fake = make_client(tmp_path, script, request_interval=1.0)
        assert list(client.fetch_user_talk_pages(["A"])) == [
            {"title": "User talk:A", "wikitext": "x"}
        ]
        assert len(session.calls) == 3
        assert fake.sleeps == [2.0, 4.0]
        assert len(cached_keys(client)) == 1
        assert list(client.fetch_user_talk_pages(["A"])) == [
            {"title": "User talk:A", "wikitext": "x"}
        ]
        assert len(session.calls) == 3

    def test_exhausted_transport_errors_name_the_last_and_cache_nothing(self, tmp_path):
        script = [
            raises(requests.ConnectionError("connection refused")),
            raises(requests.Timeout("read timed out")),
            raises(requests.ConnectionError("connection reset by peer")),
        ]
        client, session, fake = make_client(tmp_path, script, max_retries=2)
        with pytest.raises(FetchExhaustedError, match=r"3 attempts \(connection reset by peer\)"):
            list(client.fetch_user_talk_pages(["A"]))
        assert len(session.calls) == 3
        assert fake.sleeps == [2.0, 4.0]
        key = canonical_request(client.config.api_base_url, session.calls[0]["params"])
        assert client.cache.get(key) is None
        assert cached_keys(client) == []

    def test_builtin_connection_error_is_retried(self, tmp_path):
        body = page_response("User talk:A", "x")
        script = [raises(ConnectionError("network is unreachable")), (200, body)]
        client, session, _ = make_client(tmp_path, script)
        assert len(list(client.fetch_user_talk_pages(["A"]))) == 1
        assert len(session.calls) == 2

    @pytest.mark.parametrize("error", [
        requests.ConnectionError("connection refused"),
        ConnectionError("network is unreachable"),
    ], ids=["requests", "builtin"])
    def test_cli_exits_3_when_every_attempt_fails(self, tmp_path, monkeypatch, capsys, error):
        failing = RoutingSession(raises(error))
        assert ingest_cli(tmp_path, monkeypatch, failing) == EXIT_NETWORK
        assert len(failing.calls) == 2
        assert str(error) in capsys.readouterr().err
        assert list((tmp_path / "cache").iterdir()) == []


def ingest_cli(tmp_path, monkeypatch, session):
    """Exit code of ``wikicomm ingest`` with every request served by ``session``."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "output_dir": str(tmp_path / "out"),
        "cache_dir": str(tmp_path / "cache"),
        "max_retries": 1,
        "projects": ["Birds"],
    }))
    client_cls = pipeline.MediaWikiClient
    monkeypatch.setattr(pipeline, "MediaWikiClient", lambda config: client_cls(
        config, session=session, sleep=lambda s: None))
    return main(["--config", str(config_path), "ingest"])


# What a proxy in front of the API may answer with status 200.
PROXY_PAGE = b"<html><body><h1>Service temporarily unavailable</h1></body></html>"


class TestOnlyAnswersAreCached:
    def test_html_then_answer_backs_off_once_and_caches_the_answer(self, tmp_path):
        body = page_response("User talk:A", "x")
        client, session, fake = make_client(
            tmp_path, [(200, PROXY_PAGE), (200, body)], request_interval=1.0
        )
        assert list(client.fetch_user_talk_pages(["A"])) == [
            {"title": "User talk:A", "wikitext": "x"}
        ]
        assert len(session.calls) == 2
        assert fake.sleeps == [2.0]
        key = canonical_request(client.config.api_base_url, session.calls[0]["params"])
        assert json.loads(client.cache.get(key).payload) == body
        assert len(cached_keys(client)) == 1

    @pytest.mark.parametrize("payload", [PROXY_PAGE, b"", b"[1, 2]", b"\xff\xfe"],
                             ids=["html", "empty", "array", "undecodable"])
    def test_no_json_object_on_every_attempt_is_exhaustion(self, tmp_path, payload):
        client, session, fake = make_client(tmp_path, [(200, payload)] * 3, max_retries=2)
        with pytest.raises(FetchExhaustedError, match="not JSON"):
            list(client.fetch_user_talk_pages(["A"]))
        assert len(session.calls) == 3
        assert fake.sleeps == [2.0, 4.0]
        assert cached_keys(client) == []

    def test_cli_exits_3_when_every_answer_is_html(self, tmp_path, monkeypatch, capsys):
        session = RoutingSession(lambda params: (200, PROXY_PAGE))
        assert ingest_cli(tmp_path, monkeypatch, session) == EXIT_NETWORK
        assert len(session.calls) == 2
        assert "not JSON" in capsys.readouterr().err
        assert list((tmp_path / "cache").iterdir()) == []

    @pytest.mark.parametrize("code, fetch", [
        ("readonly", lambda client: client.fetch_user_talk_pages(["A"])),
        ("badvalue", lambda client: client.fetch_assessments()),
    ], ids=["fetch_pages", "fetch_assessments"])
    def test_error_envelope_fails_at_once_and_caches_nothing(self, tmp_path, code, fetch):
        envelope = {"error": {"code": code, "info": "the request was refused"}}
        client, session, fake = make_client(tmp_path, [(200, envelope)] * 2)
        with pytest.raises(DataError, match=code):
            list(fetch(client))
        assert len(session.calls) == 1
        assert fake.sleeps == []
        assert cached_keys(client) == []

    def test_cli_exits_4_on_an_error_envelope(self, tmp_path, monkeypatch, capsys):
        session = RoutingSession(lambda params: (200, {"error": {"code": "readonly"}}))
        assert ingest_cli(tmp_path, monkeypatch, session) == EXIT_DATA
        assert len(session.calls) == 1
        assert "readonly" in capsys.readouterr().err
        assert list((tmp_path / "cache").iterdir()) == []

    @pytest.mark.parametrize("payload", [
        json.dumps({"error": {"code": "readonly"}}).encode(), PROXY_PAGE,
    ], ids=["error-envelope", "html"])
    def test_cached_entry_that_is_no_answer_fails(self, tmp_path, payload):
        config = make_config(tmp_path)
        params = dict(PAGE_QUERY, titles="User talk:A")
        key = canonical_request(config.api_base_url, params)
        ResponseCache(config.cache_dir).put(key, payload)
        [pack] = Path(config.cache_dir).iterdir()
        session = ScriptSession([])
        client = MediaWikiClient(config, session=session)
        with pytest.raises(DataError, match="User talk:A") as excinfo:
            list(client.fetch_user_talk_pages(["A"]))
        assert f"deleting {pack} makes its answers get fetched again" in str(excinfo.value)
        assert session.calls == []

    def test_deleting_the_named_pack_refetches_its_answers(self, tmp_path):
        # The advice of the error above, followed: the next run fetches the
        # answer again and caches it in a new pack.
        config = make_config(tmp_path)
        key = canonical_request(config.api_base_url, dict(PAGE_QUERY, titles="User talk:A"))
        ResponseCache(config.cache_dir).put(key, PROXY_PAGE)
        client = MediaWikiClient(config, session=ScriptSession([]))
        with pytest.raises(DataError) as excinfo:
            list(client.fetch_user_talk_pages(["A"]))
        named = re.search(r"deleting (.+) makes its answers", str(excinfo.value)).group(1)
        Path(named).unlink()
        body = page_response("User talk:A", "x")
        session = ScriptSession([(200, body)])
        client = MediaWikiClient(config, session=session, sleep=lambda s: None)
        assert list(client.fetch_user_talk_pages(["A"])) == [
            {"title": "User talk:A", "wikitext": "x"}
        ]
        assert len(session.calls) == 1
        assert json.loads(ResponseCache(config.cache_dir).get(key).payload) == body


# Answers whose pages are not where formatversion 2 puts them.
MALFORMED_ANSWERS = [
    {"query": {"pages": "x"}},
    {"query": []},
    {"query": {"pages": [5]}},
    {"query": {"pages": [{"title": "T", "revisions": "x", "pageassessments": "x"}]}},
    {"query": {"pages": [{"title": 5, "pageassessments": {"P": {"class": "FA"}}}]}},
]
MALFORMED_IDS = [
    "pages_string", "query_list", "page_number", "page_fields_strings", "title_number"
]
# Malformed only where the assessments query reads: a page fetch ignores them.
MALFORMED_ASSESSMENTS = [
    {"query": {"pages": [{"title": "T", "pageassessments": {"P": {"class": 3}}}]}},
    {"query": {"pages": [{"title": "T", "pageassessments": {"P": "FA"}}]}},
    {"query": {"pages": []}, "continue": "x"},
    {"query": {"pages": []}, "continue": {"gapcontinue": 5}},
    {"query": {"pages": [{"pageassessments": {"P": {"class": "FA"}}}]}},
    {"query": {"pages": [{"title": "", "pageassessments": {"P": {"class": "FA"}}}]}},
]
MALFORMED_ASSESSMENTS_IDS = [
    "class_number", "assessment_string", "continue_string", "continue_value_number",
    "title_missing", "title_empty",
]


class TestMalformedAnswers:
    @pytest.mark.parametrize("body", MALFORMED_ANSWERS, ids=MALFORMED_IDS)
    @pytest.mark.parametrize("fetch, request_part", [
        (lambda client: client.fetch_user_talk_pages(["A"]), "User talk:A"),
        (lambda client: client.fetch_assessments(), "pageassessments"),
    ], ids=["fetch_user_talk_pages", "fetch_assessments"])
    def test_data_error_names_the_request(self, tmp_path, body, fetch, request_part):
        client, session, _ = make_client(tmp_path, [(200, body)])
        with pytest.raises(DataError, match=rf"^malformed .* request .*{request_part}"):
            list(fetch(client))
        assert len(session.calls) == 1

    @pytest.mark.parametrize("body", MALFORMED_ASSESSMENTS, ids=MALFORMED_ASSESSMENTS_IDS)
    def test_assessments_data_error_names_the_request(self, tmp_path, body):
        client, session, _ = make_client(tmp_path, [(200, body)])
        with pytest.raises(DataError, match=r"^malformed .* request .*pageassessments"):
            list(client.fetch_assessments())
        assert len(session.calls) == 1

    def test_cli_exits_4(self, tmp_path, monkeypatch, capsys):
        session = RoutingSession(lambda params: (200, MALFORMED_ANSWERS[0]))
        assert ingest_cli(tmp_path, monkeypatch, session) == EXIT_DATA
        assert "malformed" in capsys.readouterr().err


@pytest.fixture
def built_sessions(monkeypatch):
    """Every session the client builds; ``requests.Session`` is a recording fake."""
    sessions = []

    class RecordingSession:
        def __init__(self):
            self.headers = {}
            self.calls = []
            sessions.append(self)

        def get(self, url, params=None, timeout=None):
            self.calls.append(dict(params))
            return FakeResponse(200, page_response(params["titles"], "x"))

    monkeypatch.setattr(requests, "Session", RecordingSession)
    return sessions


class TestOwnSession:
    def test_one_session_built_on_the_first_live_fetch(self, tmp_path, built_sessions):
        config = make_config(tmp_path, user_agent="test-agent/1.0 (ops@example.org)")
        client = MediaWikiClient(config, sleep=lambda s: None)
        assert built_sessions == []
        list(client.fetch_user_talk_pages(["A"]))
        list(client.fetch_user_talk_pages(["A", "B"]))
        (session,) = built_sessions
        assert session.headers["User-Agent"] == "test-agent/1.0 (ops@example.org)"
        assert [call["titles"] for call in session.calls] == ["User talk:A", "User talk:B"]

    def test_no_session_for_cache_hits_or_offline(self, tmp_path, built_sessions):
        config = make_config(tmp_path)
        list(MediaWikiClient(config, sleep=lambda s: None).fetch_user_talk_pages(["A"]))
        built_sessions.clear()
        hits = MediaWikiClient(config, sleep=lambda s: None)
        assert len(list(hits.fetch_user_talk_pages(["A"]))) == 1
        offline = MediaWikiClient(make_config(tmp_path, offline=True))
        assert len(list(offline.fetch_user_talk_pages(["A"]))) == 1
        with pytest.raises(FetchExhaustedError, match="offline"):
            list(offline.fetch_user_talk_pages(["B"]))
        assert built_sessions == []


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
