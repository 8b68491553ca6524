"""In-process fake of the MediaWiki query API for the crawl workload.

It stands in for the HTTP session of ``MediaWikiClient`` and serves the
generated dumps:

* ``titles=`` queries get ``formatversion=2`` page responses, and members
  without a talk page (and absent project subpages) get ``missing``;
* the ``generator=allpages`` assessment query is paged 200 articles per
  response with ``continue`` tokens;
* a fixed, seeded subset of requests is refused once, alternately with HTTP
  429 and with a ``maxlag`` error envelope, so retries and back-off happen.

Sleep and clock are injected: nothing really sleeps, the clock advances by
what the client asks to sleep, and the sleeps that follow a refusal are
summed as simulated back-off.
"""

from __future__ import annotations

import hashlib
import json
import time

ASSESSMENTS_PER_RESPONSE = 200
THROTTLED_SHARE = 0.02


class Response:
    def __init__(self, status_code: int, body: dict | None) -> None:
        self.status_code = status_code
        self.content = json.dumps(body).encode("utf-8") if body is not None else b""


class FakeMediaWiki:
    """A session (``get``) plus the client's ``sleep`` and ``clock``."""

    def __init__(self, dumps: dict, seed: int) -> None:
        self.pages: dict[str, str] = dumps["pages"]
        articles: dict[str, dict] = {}
        for project, article, grade in dumps["assessments"]:
            articles.setdefault(article, {})[project] = {"class": grade, "importance": ""}
        self.articles = sorted(articles.items())
        self.article_index = {title: i for i, (title, _) in enumerate(self.articles)}
        self.seed = seed
        self.refused: set[str] = set()
        self.requests = 0
        self.now = 0.0
        self.backoff_s = 0.0
        self.get_s = 0.0  # this fake's own time inside the measured process
        self._backing_off = False

    # -- session --------------------------------------------------------------

    def get(self, url: str, params: dict | None = None, timeout: float | None = None) -> Response:
        start = time.monotonic()
        try:
            return self._serve(params or {})
        finally:
            self.get_s += time.monotonic() - start

    def _serve(self, params: dict) -> Response:
        self.requests += 1
        key = json.dumps(params, sort_keys=True)
        digest = hashlib.blake2b(f"{self.seed}|{key}".encode("utf-8"), digest_size=8).digest()
        if key not in self.refused and int.from_bytes(digest, "big") < THROTTLED_SHARE * 2**64:
            self.refused.add(key)
            self._backing_off = True
            if digest[-1] % 2:
                return Response(429, None)
            return Response(200, {"error": {"code": "maxlag", "info": "Waiting for a replica"}})
        if "titles" in params:
            return Response(200, self._page(params["titles"]))
        if params.get("generator") == "allpages":
            return Response(200, self._assessments(params.get("gapcontinue")))
        return Response(400, {"error": {"code": "badrequest"}})

    def _page(self, title: str) -> dict:
        text = self.pages.get(title)
        if text is None:
            page = {"ns": 3, "title": title, "missing": True}
        else:
            page = {"ns": 3, "title": title,
                    "revisions": [{"slots": {"main": {"contentmodel": "wikitext",
                                                      "content": text}}}]}
        return {"batchcomplete": True, "query": {"pages": [page]}}

    def _assessments(self, start_title: str | None) -> dict:
        start = self.article_index[start_title] if start_title else 0
        chunk = self.articles[start:start + ASSESSMENTS_PER_RESPONSE]
        body: dict = {"query": {"pages": [
            {"ns": 0, "title": title, "pageassessments": projects} for title, projects in chunk
        ]}}
        end = start + ASSESSMENTS_PER_RESPONSE
        if end < len(self.articles):
            body["continue"] = {"gapcontinue": self.articles[end][0], "continue": "gapcontinue||"}
        return body

    # -- injected time ------------------------------------------------------

    def sleep(self, seconds: float) -> None:
        self.now += seconds
        if self._backing_off:
            self.backoff_s += seconds
            self._backing_off = False

    def clock(self) -> float:
        return self.now


def dumps_of(corpus) -> dict:
    """The JSON-ready data a fake API serves for ``corpus``."""
    pages = {r["title"]: r["wikitext"] for r in corpus.project_pages}
    pages.update((r["title"], r["wikitext"]) for r in corpus.talk_pages)
    return {"pages": pages, "assessments": corpus.assessments}
