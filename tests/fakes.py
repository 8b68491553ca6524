"""Offline stand-ins for the HTTP session, and readers and writers of cache layouts."""

from __future__ import annotations

import json
from pathlib import Path


class FakeClock:
    """Clock that only advances when something sleeps on it."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.sleeps.append(seconds)
        self.now += seconds


class FakeResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self.content = body if isinstance(body, bytes) else json.dumps(body).encode()


class ScriptSession:
    """Scripted session: each .get pops the next response; calls are recorded."""

    def __init__(self, script, clock=None):
        self.script = list(script)
        self.calls = []
        self._clock = clock

    def get(self, url, params=None, timeout=None):
        self.calls.append(
            {"params": dict(params), "at": self._clock.now if self._clock else None}
        )
        item = self.script.pop(0)
        if callable(item):
            item = item(params)
        status, body = item
        return FakeResponse(status, body)


class RoutingSession:
    """Session backed by a handler: handler(params) -> (status, body)."""

    def __init__(self, handler):
        self.handler = handler
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append(dict(params))
        status, body = self.handler(params)
        return FakeResponse(status, body)


def page_response(title, wikitext=None, missing=False):
    page = {"title": title}
    if missing:
        page["missing"] = True
    elif wikitext is not None:
        page["revisions"] = [{"slots": {"main": {"content": wikitext}}}]
    return {"query": {"pages": [page]}}


def read_pack(path):
    """The ``(header, payload)`` records of a cache pack, which must all be whole."""
    data = Path(path).read_bytes()
    records, offset = [], 0
    while offset < len(data):
        start = data.index(b"\n", offset) + 1
        header = json.loads(data[offset:start])
        payload = data[start : start + header["size"]]
        assert len(payload) == header["size"], f"torn record at offset {offset}"
        records.append((header, payload))
        offset = start + header["size"]
    return records
