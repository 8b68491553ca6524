"""Rate-limited, cached MediaWiki API client.

All HTTP goes through one throttled code path. Responses are cached on disk
as raw bytes, content-addressed by the canonical request, so pages fetched
during a multi-day crawl can be re-parsed after parser fixes without
refetching; a warm cache also makes every pipeline stage replayable offline.
Each response is one file, ``<sha256(key)>.entry``: a JSON header line
holding the key and the fetch instant, then the payload bytes as received.
Caches written by earlier versions, which kept each response as a
``<sha256>.body`` and ``<sha256>.meta.json`` pair, are still read.
The ``session`` constructor argument is the seam tests use to stay offline.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

import requests

from .config import PipelineConfig

__all__ = ["FetchExhaustedError", "DataError", "CacheEntry", "ResponseCache", "MediaWikiClient"]

log = logging.getLogger(__name__)

_THROTTLE_STATUSES = {429, 500, 502, 503, 504}


class FetchExhaustedError(Exception):
    """Network retrieval failed after exhausting retries (or offline miss).

    The on-disk cache is the resumable checkpoint: everything fetched before
    the failure is served from cache on the next run.
    """


class DataError(Exception):
    """A response violated a data invariant (e.g. a continuation loop)."""


@dataclass(frozen=True)
class CacheEntry:
    """One cached response: canonical request key, fetch instant, raw bytes."""

    key: str
    fetched_at: datetime
    payload: bytes


class ResponseCache:
    """Content-addressed store of raw response bytes, immutable once written.

    An entry is the file ``<sha256(key)>.entry``: one JSON line
    ``{"fetched_at": ..., "key": ...}`` (sorted keys), ``\n``, then the
    payload exactly as received. ``put`` writes it to ``<name>.tmp`` and
    renames it into place, so an interrupted write leaves no entry and a
    later ``put`` writes it afresh; ``get`` opens it once. Where no
    ``.entry`` exists, ``get`` falls back to the earlier layout, a
    ``<sha256>.body`` payload beside its ``<sha256>.meta.json``, which is
    read but never written; ``put`` leaves an entry in either layout as it
    is.
    """

    def __init__(self, directory: str | Path) -> None:
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)

    def _stem(self, key: str) -> str:
        return os.path.join(self._dir, hashlib.sha256(key.encode("utf-8")).hexdigest())

    def get(self, key: str) -> Optional[CacheEntry]:
        stem = self._stem(key)
        try:
            with open(stem + ".entry", "rb") as f:
                meta = json.loads(f.readline())
                payload = f.read()
        except FileNotFoundError:
            try:
                # The layout of earlier versions, whose put renamed the body
                # into place before the meta: a meta file means a whole body.
                with open(stem + ".meta.json", "rb") as f:
                    meta = json.loads(f.read())
                with open(stem + ".body", "rb") as f:
                    payload = f.read()
            except FileNotFoundError:
                return None
        return CacheEntry(
            key=meta["key"],
            fetched_at=datetime.fromisoformat(meta["fetched_at"]),
            payload=payload,
        )

    def put(self, key: str, payload: bytes) -> CacheEntry:
        existing = self.get(key)
        if existing is not None:
            return existing
        fetched_at = datetime.now(timezone.utc)
        header = json.dumps({"fetched_at": fetched_at.isoformat(), "key": key}, sort_keys=True)
        path = self._stem(key) + ".entry"
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as f:
                f.write(header.encode("ascii") + b"\n")
                f.write(payload)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        return CacheEntry(key=key, fetched_at=fetched_at, payload=payload)


def canonical_request(url: str, params: dict[str, str]) -> str:
    """Stable cache key for one API request."""
    return json.dumps({"url": url, "params": params}, sort_keys=True, ensure_ascii=False)


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
        self.fetched_at: list[datetime] = []

    def _ensure_session(self) -> requests.Session:
        if self._session is None:
            self._session = requests.Session()
            self._session.headers.update({"User-Agent": self.config.user_agent})
        return self._session

    def _throttle(self) -> None:
        now = self._clock()
        if self._last_request is not None:
            wait = self.config.request_interval - (now - self._last_request)
            if wait > 0:
                self._sleep(wait)
        self._last_request = self._clock()

    def _is_throttle_response(self, status: int, payload: bytes) -> bool:
        if status in _THROTTLE_STATUSES:
            return True
        # MediaWiki signals load shedding with HTTP 200 + an error envelope.
        try:
            body = json.loads(payload)
        except (ValueError, UnicodeDecodeError):
            return False
        return isinstance(body, dict) and body.get("error", {}).get("code") == "maxlag"

    def _fetch(self, params: dict[str, str]) -> bytes:
        key = canonical_request(self.config.api_base_url, params)
        cached = self.cache.get(key)
        if cached is not None:
            self.fetched_at.append(cached.fetched_at)
            return cached.payload
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
                response = session.get(
                    self.config.api_base_url, params=params, timeout=60
                )
                status = response.status_code
                payload = response.content
            except requests.RequestException as exc:
                last_error = str(exc)
                log.warning("request failed (attempt %d): %s", attempt + 1, exc)
                continue
            if self._is_throttle_response(status, payload):
                last_error = f"throttled (HTTP {status})"
                log.info("server throttled request, backing off (attempt %d)", attempt + 1)
                continue
            if status != 200:
                last_error = f"HTTP {status}"
                continue
            entry = self.cache.put(key, payload)
            self.fetched_at.append(entry.fetched_at)
            return payload
        raise FetchExhaustedError(
            f"request failed after {self.config.max_retries + 1} attempts "
            f"({last_error}); fetched pages remain cached for resume: {params}"
        )

    def get_json(self, params: dict[str, str]) -> dict:
        payload = self._fetch(params)
        try:
            return json.loads(payload)
        except ValueError as exc:
            raise DataError(f"response is not JSON for request {params}: {exc}") from exc

    # -- page fetchers ------------------------------------------------------

    @staticmethod
    def _page_wikitext(page: dict) -> Optional[str]:
        revisions = page.get("revisions") or []
        if not revisions:
            return None
        revision = revisions[0]
        slots = revision.get("slots")
        if slots:
            return slots.get("main", {}).get("content")
        # Legacy (formatversion=1) shape; a blanked page is ``{"*": ""}``.
        if "*" in revision:
            return revision["*"]
        return revision.get("content")

    def fetch_pages(self, titles: Iterable[str], query: dict[str, str]) -> Iterator[dict]:
        """Fetch wikitext for each title; missing pages are logged and skipped."""
        for title in titles:
            params = dict(query)
            params["titles"] = title
            body = self.get_json(params)
            pages = body.get("query", {}).get("pages", [])
            if isinstance(pages, dict):  # formatversion=1
                pages = list(pages.values())
            for page in pages:
                if page.get("missing") or page.get("missing") == "":
                    log.info("page does not exist, skipped: %s", page.get("title", title))
                    continue
                wikitext = self._page_wikitext(page)
                if wikitext is None:
                    log.warning("page has no retrievable content, skipped: %s", title)
                    continue
                yield {"title": page.get("title", title), "wikitext": wikitext}

    def fetch_user_talk_pages(self, usernames: Iterable[str]) -> Iterator[dict]:
        """One ``{"title", "wikitext"}`` record per existing user talk page."""
        titles = (f"User talk:{name}" for name in usernames)
        yield from self.fetch_pages(titles, self.config.user_talk_query)

    def fetch_assessments(self) -> Iterator[dict]:
        """Yield ``{"project", "article", "grade"}`` rows from paginated queries.

        Follows continuation tokens; a server that repeats a continuation
        token would loop forever, so repeats abort with :class:`DataError`.
        """
        params = dict(self.config.assessments_query)
        seen_tokens: set[str] = set()
        while True:
            body = self.get_json(params)
            pages = body.get("query", {}).get("pages", [])
            if isinstance(pages, dict):
                pages = list(pages.values())
            for page in pages:
                title = page.get("title", "")
                for project, assessment in (page.get("pageassessments") or {}).items():
                    yield {
                        "project": project,
                        "article": title,
                        "grade": assessment.get("class", "") or "",
                    }
            cont = body.get("continue")
            if not cont:
                return
            token = json.dumps(cont, sort_keys=True)
            if token in seen_tokens:
                raise DataError(f"continuation loop detected: server repeated {cont}")
            seen_tokens.add(token)
            params = dict(self.config.assessments_query)
            params.update(cont)
