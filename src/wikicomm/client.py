"""Rate-limited, cached MediaWiki API client.

All HTTP goes through one throttled code path, ``get_json``. Answers (JSON
objects without an ``error`` envelope) are cached on disk as raw bytes,
addressed by the canonical request, so pages fetched during a multi-day
crawl can be re-parsed after parser fixes without refetching; a warm cache
also makes every pipeline stage replayable offline. Each cache appends its
answers to one pack file of its own, ``<UTC instant>-<pid>.pack``: per
answer, a JSON header line holding the key, the fetch instant and the
payload size, then the payload bytes as received. A record cut short by an
interrupted write can only end a pack, and is ignored.
The client sends two fixed queries, ``PAGE_QUERY`` per title and the paged
``ASSESSMENTS_QUERY``. Both ask for ``formatversion=2``, the one response
shape it reads; an answer of another shape fails with :class:`DataError`.
The fetchers yield plain tuples: ``(title, wikitext)`` per existing page and
``(project, article, grade)`` per assessment.
The ``session`` constructor argument is the seam tests use to stay offline.
``requests`` is imported only when the client builds its own session, on
its first live fetch, so offline runs never load the HTTP stack.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from .config import PipelineConfig

if TYPE_CHECKING:
    import requests

__all__ = ["FetchExhaustedError", "DataError", "ResponseCache", "MediaWikiClient"]

log = logging.getLogger(__name__)

_THROTTLE_STATUSES = {429, 500, 502, 503, 504}

# Every request is one of these plus ``titles`` or a continuation. A cache key
# embeds them. ``rvslots`` needs MediaWiki >= 1.32, which has formatversion 2.
PAGE_QUERY = {
    "action": "query",
    "prop": "revisions",
    "rvprop": "content",
    "rvslots": "main",
    "format": "json",
    "formatversion": "2",
}
ASSESSMENTS_QUERY = {
    "action": "query",
    "generator": "allpages",
    "gaplimit": "200",
    "prop": "pageassessments",
    "palimit": "max",
    "format": "json",
    "formatversion": "2",
}
# The pages of a Wikiproject scanned for member signatures.
PROJECT_SUBPAGES = ("", "/Members", "/Participants")

# json.dumps with options builds an encoder per call; a crawl encodes a key
# and a pack header per request, so each format keeps one encoder.
_encode_key = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
_encode_header = json.JSONEncoder(sort_keys=True).encode


class FetchExhaustedError(Exception):
    """Network retrieval failed after exhausting retries (or offline miss).

    The on-disk cache is the resumable checkpoint: everything fetched before
    the failure is served from cache on the next run.
    """


class DataError(Exception):
    """A response violated a data invariant (e.g. a continuation loop)."""


def _digest(key: str) -> bytes:
    return hashlib.sha256(key.encode("utf-8")).digest()


def _record_header(line: bytes) -> Optional[tuple[str, int]]:
    """The key and payload size of a pack's header line; None if it is cut or malformed."""
    if not line.endswith(b"\n"):
        return None
    try:
        header = json.loads(line)
        key, size = header["key"], header["size"]
        datetime.fromisoformat(header["fetched_at"])
    except (ValueError, TypeError, KeyError):
        return None
    if not isinstance(key, str) or not isinstance(size, int) or size < 0:
        return None
    return key, size


class ResponseCache:
    """Store of raw response bytes addressed by request key, immutable once written.

    Each cache appends to a pack of its own, ``<UTC instant>-<pid>.pack``,
    created on its first ``put``. A record is one JSON line
    ``{"fetched_at": ..., "key": ..., "size": ...}`` (sorted keys), ``\\n``,
    then ``size`` payload bytes exactly as received. ``put`` writes a record
    in one call and closes the pack before it returns; if the write fails,
    the cache abandons that pack and its next ``put`` starts a new one, so a
    torn record can only end a pack. Nothing is fsynced: a ``put`` that
    returned survives a killed process, not a crashed host.

    The constructor builds the index, which maps the sha256 digest of each
    key to its record. It reads the header of every record in every
    ``*.pack``, in name order, and stops reading a pack at a header line
    that is cut or does not parse (a key that is no string, a size that is no
    int ≥ 0, a ``fetched_at`` that is no ISO instant), or at a payload that
    runs past the end of the file, with a warning; the first record of a key
    wins. Any other file in the directory is ignored and left as it is. The
    cache therefore sees what existed when it was built and what it writes
    itself, not what another process writes meanwhile. ``get`` is a dict
    lookup: a miss touches no file, and a hit reads one record. ``get`` and
    ``put`` return ``(fetched_at, payload)``, the instant as written.
    """

    def __init__(self, directory: str | Path) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        # digest -> (pack, offset of its record)
        self._index: dict[bytes, tuple[str, int]] = {}
        self._pack: Optional[str] = None
        with os.scandir(self._dir) as listing:
            packs = sorted(item.path for item in listing if item.name.endswith(".pack"))
        for path in packs:
            self._scan_pack(path)

    def _scan_pack(self, path: str) -> None:
        """Index the records of one pack, up to the first torn one."""
        with open(path, "rb") as f:
            end = os.fstat(f.fileno()).st_size
            offset = 0
            while offset < end:
                line = f.readline()
                header = _record_header(line)
                if header is None or offset + len(line) + header[1] > end:
                    log.warning(
                        "cache pack %s: torn record at offset %d, rest ignored", path, offset
                    )
                    return
                key, size = header
                self._index.setdefault(_digest(key), (path, offset))
                offset += len(line) + size
                f.seek(offset)

    @staticmethod
    def _read(path: str, offset: int) -> tuple[str, bytes]:
        with open(path, "rb") as f:
            f.seek(offset)
            meta = json.loads(f.readline())
            return meta["fetched_at"], f.read(meta["size"])

    def pack_of(self, key: str) -> str:
        """The pack that holds the record of ``key``, which must be cached."""
        return self._index[_digest(key)][0]

    def get(self, key: str) -> Optional[tuple[str, bytes]]:
        location = self._index.get(_digest(key))
        return self._read(*location) if location is not None else None

    def put(self, key: str, payload: bytes) -> tuple[str, bytes]:
        digest = _digest(key)
        location = self._index.get(digest)
        if location is not None:
            return self._read(*location)
        now = datetime.now(timezone.utc)
        fetched_at = now.isoformat()
        header = _encode_header({"fetched_at": fetched_at, "key": key, "size": len(payload)})
        mode = "ab"
        if self._pack is None:
            mode = "xb"
            name = f"{now:%Y%m%dT%H%M%S%fZ}-{os.getpid()}.pack"
            self._pack = os.path.join(self._dir, name)
        try:
            with open(self._pack, mode) as f:
                offset = f.tell()
                f.write(header.encode("ascii") + b"\n" + payload)
        except BaseException:
            # The pack may now end in a torn record: never append after it.
            self._pack = None
            raise
        self._index[digest] = (self._pack, offset)
        return fetched_at, payload


def canonical_request(url: str, params: dict[str, str]) -> str:
    """Stable cache key for one API request."""
    return _encode_key({"url": url, "params": params})


def _json_object(payload: bytes) -> Optional[dict]:
    """``payload`` decoded, if it is a JSON object; None if it is anything else."""
    try:
        body = json.loads(payload)
    except ValueError:  # UnicodeDecodeError included
        return None
    return body if isinstance(body, dict) else None


def _pages(body: dict, params: dict[str, str]) -> list[dict]:
    """The page objects of an answer's ``query.pages``; none if it has no ``query``.

    Each page must be an object, and its ``title``, if any, a string.
    """
    query = body.get("query", {})
    pages = query.get("pages", []) if isinstance(query, dict) else None
    if not isinstance(pages, list) or not all(
        isinstance(page, dict) and isinstance(page.get("title", ""), str) for page in pages
    ):
        raise DataError(f"malformed query.pages for request {params}")
    return pages


def _page_wikitext(page: dict, params: dict[str, str]) -> Optional[str]:
    """``revisions[0].slots.main.content`` of a page; None if the answer leaves it out."""
    try:
        revision = (page.get("revisions") or [{}])[0]
        content = revision.get("slots", {}).get("main", {}).get("content")
        if content is None or isinstance(content, str):
            return content
    except (AttributeError, LookupError, TypeError):
        pass
    raise DataError(f"malformed revisions for request {params}")


class MediaWikiClient:
    """Throttled API client; one logical request stream, backed by the cache."""

    def __init__(
        self,
        config: PipelineConfig,
        session: Optional[requests.Session] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.cache = ResponseCache(config.cache_dir)
        self._session = session
        self._sleep = sleep
        self._clock = clock
        self._last_request: Optional[float] = None
        # Answers returned, and the earliest and latest of their fetch instants.
        self.answers = 0
        self.earliest_fetch: Optional[str] = None
        self.latest_fetch: Optional[str] = None

    def _ensure_session(self) -> requests.Session:
        if self._session is None:
            import requests

            self._session = requests.Session()
            self._session.headers.update({"User-Agent": self.config.user_agent})
        return self._session

    def _count(self, instant: str) -> None:
        self.answers += 1
        self.earliest_fetch = min(instant, self.earliest_fetch or instant)
        self.latest_fetch = max(instant, self.latest_fetch or instant)

    def _throttle(self) -> None:
        now = self._clock()
        if self._last_request is not None:
            wait = self.config.request_interval - (now - self._last_request)
            if wait > 0:
                self._sleep(wait)
        self._last_request = self._clock()

    def get_json(self, params: dict[str, str]) -> dict:
        """The answer to one API request, from the cache or else the network.

        Each payload is decoded once. Only an answer, a JSON object without
        an ``error`` envelope, is cached; any envelope but ``maxlag`` fails.
        """
        key = canonical_request(self.config.api_base_url, params)
        cached = self.cache.get(key)
        if cached is not None:
            fetched_at, payload = cached
            body = _json_object(payload)
            if body is None or "error" in body:
                raise DataError(
                    f"cached response is no API answer for request {params}; deleting "
                    f"{self.cache.pack_of(key)} makes its answers get fetched again"
                )
            self._count(fetched_at)
            return body
        if self.config.offline:
            raise FetchExhaustedError(
                f"offline mode and request not cached: {params.get('titles', params)}"
            )
        session = self._ensure_session()
        last_error: Optional[str] = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self._sleep(self.config.request_interval * 2**attempt)
            self._throttle()
            try:
                response = session.get(self.config.api_base_url, params=params, timeout=60)
                status, payload = response.status_code, response.content
            except OSError as exc:  # requests.RequestException subclasses it
                last_error = str(exc)
                log.warning("request failed (attempt %d): %s", attempt + 1, exc)
                continue
            body = _json_object(payload)
            error = body.get("error") if body is not None else None
            # MediaWiki signals load shedding with HTTP 200 + a maxlag envelope.
            if status in _THROTTLE_STATUSES or (
                isinstance(error, dict) and error.get("code") == "maxlag"
            ):
                last_error = f"throttled (HTTP {status})"
                log.info("server throttled request, backing off (attempt %d)", attempt + 1)
                continue
            if status != 200:
                last_error = f"HTTP {status}"
                continue
            if body is None:
                last_error = "HTTP 200 body is not JSON"
                continue
            if error is not None:
                raise DataError(f"API error {json.dumps(error)} for request {params}")
            self._count(self.cache.put(key, payload)[0])
            return body
        raise FetchExhaustedError(
            f"request failed after {self.config.max_retries + 1} attempts "
            f"({last_error}); fetched pages remain cached for resume: {params}"
        )

    # -- page fetchers ------------------------------------------------------

    def fetch_pages(self, titles: Iterable[str]) -> Iterator[tuple[str, str]]:
        """``(title, wikitext)`` per title; missing pages are logged and skipped."""
        for title in titles:
            params = dict(PAGE_QUERY, titles=title)
            for page in _pages(self.get_json(params), params):
                if page.get("missing"):
                    log.info("page does not exist, skipped: %s", page.get("title", title))
                    continue
                wikitext = _page_wikitext(page, params)
                if wikitext is None:
                    log.warning("page has no retrievable content, skipped: %s", title)
                    continue
                yield page.get("title", title), wikitext

    def fetch_project_pages(self, project: str) -> Iterator[tuple[str, str]]:
        """``(title, wikitext)`` per existing page of a Wikiproject."""
        yield from self.fetch_pages(
            f"Wikipedia:WikiProject {project}{subpage}" for subpage in PROJECT_SUBPAGES
        )

    def fetch_user_talk_pages(self, usernames: Iterable[str]) -> Iterator[tuple[str, str]]:
        """``(title, wikitext)`` per existing user talk page."""
        yield from self.fetch_pages(f"User talk:{name}" for name in usernames)

    def fetch_assessments(self) -> Iterator[tuple[str, str, str]]:
        """Yield ``(project, article, grade)`` rows from paginated queries.

        Follows continuation tokens; a server that repeats a continuation
        token would loop forever, so repeats abort with :class:`DataError`.
        """
        params = dict(ASSESSMENTS_QUERY)
        seen_tokens: set[str] = set()
        while True:
            body = self.get_json(params)
            for page in _pages(body, params):
                assessments = page.get("pageassessments") or {}
                if not isinstance(assessments, dict):
                    raise DataError(f"malformed pageassessments for request {params}")
                if assessments and not page.get("title"):
                    raise DataError(f"malformed page without a title for request {params}")
                for project, assessment in assessments.items():
                    grade = assessment.get("class", "") if isinstance(assessment, dict) else None
                    if not isinstance(grade, str):
                        raise DataError(f"malformed pageassessments for request {params}")
                    yield project, page["title"], grade
            cont = body.get("continue")
            if not cont:
                return
            if not isinstance(cont, dict) or not all(isinstance(v, str) for v in cont.values()):
                raise DataError(f"malformed continue for request {params}")
            token = json.dumps(cont, sort_keys=True)
            if token in seen_tokens:
                raise DataError(f"continuation loop detected: server repeated {cont}")
            seen_tokens.add(token)
            params = dict(ASSESSMENTS_QUERY)
            params.update(cont)
