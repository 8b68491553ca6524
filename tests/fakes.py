"""Scaffolding the test modules share.

Offline stand-ins for the HTTP session and the clock, a fake API serving the
mini-wiki, the mini-wiki's config and inputs, a reader of cache packs, small
networks, and the generator of wikitext built from signature-like pieces.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
from pathlib import Path

from hypothesis import strategies as st

from wikicomm.config import PipelineConfig

from oracles import summed_rows

MINIWIKI = Path(__file__).parent / "fixtures" / "miniwiki"
INGEST_OUTPUTS = ["project_pages.jsonl", "talk_pages.jsonl", "assessments.csv",
                  "fetch_manifest.json"]


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


def load_jsonl(path: Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    return records


# -- the mini-wiki ---------------------------------------------------------------


def write_config(tmp_path, **overrides) -> Path:
    """``tmp_path/config.json``: the mini-wiki config, its work dir and cache in ``tmp_path``."""
    config = json.loads((MINIWIKI / "config.json").read_text())
    config["output_dir"] = str(tmp_path / "out")
    config["cache_dir"] = str(tmp_path / "cache")
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def miniwiki_config(tmp_path, **overrides) -> PipelineConfig:
    """The mini-wiki config, offline, its work dir and cache under ``tmp_path``."""
    settings = dict(output_dir=str(tmp_path / "out"), cache_dir=str(tmp_path / "cache"),
                    offline=True)
    settings.update(overrides)
    return dataclasses.replace(PipelineConfig.from_file(MINIWIKI / "config.json"), **settings)


def seed_workdir(out) -> Path:
    """The work dir ``out``, holding the mini-wiki's downloads as ingest writes them."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name in INGEST_OUTPUTS[:-1]:
        shutil.copy(MINIWIKI / name, out / name)
    return out


class MiniwikiApi:
    """Serves the mini-wiki fixtures in MediaWiki API response shapes."""

    def __init__(self):
        self.pages = {
            record["title"]: record["wikitext"]
            for record in load_jsonl(MINIWIKI / "project_pages.jsonl")
        }
        self.pages.update(
            {
                record["title"]: record["wikitext"]
                for record in load_jsonl(MINIWIKI / "talk_pages.jsonl")
            }
        )
        with open(MINIWIKI / "assessments.csv", newline="", encoding="utf-8") as f:
            self.assessment_rows = list(csv.DictReader(f))
        self.split = len(self.assessment_rows) // 2

    def _assessment_page(self, rows):
        return [
            {
                "title": row["article"],
                "pageassessments": {row["project"]: {"class": row["grade"]}},
            }
            for row in rows
        ]

    def __call__(self, params):
        if "titles" in params:
            title = params["titles"]
            if title in self.pages:
                return 200, {
                    "query": {
                        "pages": [
                            {
                                "title": title,
                                "revisions": [
                                    {"slots": {"main": {"content": self.pages[title]}}}
                                ],
                            }
                        ]
                    }
                }
            return 200, {"query": {"pages": [{"title": title, "missing": True}]}}
        if params.get("generator") == "allpages":
            if "gapcontinue" not in params:
                return 200, {
                    "query": {"pages": self._assessment_page(self.assessment_rows[: self.split])},
                    "continue": {"gapcontinue": "second-batch", "continue": "gapcontinue||"},
                }
            return 200, {
                "query": {"pages": self._assessment_page(self.assessment_rows[self.split :])}
            }
        raise AssertionError(f"unexpected request: {params}")


# -- small networks --------------------------------------------------------------

Edges = list[tuple[str, str, int]]


def star(n: int) -> Edges:
    return summed_rows(("hub", f"leaf{i}", 1) for i in range(n - 1))


def ring(n: int) -> Edges:
    return summed_rows((f"n{i}", f"n{(i + 1) % n}", 1) for i in range(n))


# -- wikitext from signature-like pieces ----------------------------------------

MONTHS = ["January", "February", "May", "December"]
NAMES = ["Ann", "bo_b", "Łukasz", "Zoë  Ng", "李小龍", "_", "MediaWiki message delivery"]
LINK_FORMS = [
    "[[User:{n}|{n}]]", "[[user:{n}]]", "[[User_talk:{n}|talk]]", "[[User talk:{n}]]",
    "[[[User:{n}]]", "[[ USER : {n} # top ]]", "[[User:{n}/Sandbox|s]]",
    "[[Special:Contributions/{n}|contribs]]", "[[Main Page]]", "[[User:{n}",
]
links = st.builds(
    lambda form, name: form.format(n=name), st.sampled_from(LINK_FORMS), st.sampled_from(NAMES)
)
# Valid, invalid (24:00, 10:60, 30 February, day 0, year 0000) and
# implausible (0999, 2099) dates; \s* and \s+ may span a newline.
timestamps = st.builds(
    "{}:{},{}{}{}{}{}{}{}(UTC)".format,
    st.sampled_from(["0", "9", "09", "23", "24", "123"]),
    st.sampled_from(["00", "59", "60"]),
    st.sampled_from(["", " ", "\n"]),
    st.sampled_from(["0", "1", "15", "29", "30", "31"]),
    st.sampled_from([" ", "\n", " \t "]),
    st.sampled_from(MONTHS),
    st.sampled_from([" ", "\n"]),
    st.sampled_from(["0999", "2000", "2001", "2021", "2099", "0000"]),
    st.sampled_from([" ", "\n"]),
)
plain_signatures = st.builds(
    "[[User:{}|x]] {}".format,
    st.sampled_from(NAMES[:5]),
    st.sampled_from(["10:00, 1 May 2021 (UTC)", "09:05, 29 February 2020 (UTC)"]),
)
line_starts = st.sampled_from(
    ["\n", "\n: ", "\n:* ", "\n{{barnstar}} ", "\n=== sub ===\n", "\n=== sub ===\n\n:: "]
)
pieces = st.one_of(
    links,
    timestamps,
    st.builds("{} {}".format, links, timestamps),
    st.builds("{} ping {} {}".format, links, links, timestamps),
    st.builds("{}{}".format, line_starts, plain_signatures),
    st.sampled_from([
        "\n", "\n\n", "== Thread ==\n", "==x==", ": ", "* ", "prose ",
        "== [[User:Ann|Ann]] 10:00, 1 May 2021 (UTC) ==\n",
        "<!-- Message sent by User:Coordinator@enwiki -->",
    ]),
    st.text(alphabet="[]:=|\n ,0123456789UTC()Mayuser", max_size=12),
)
wikitexts = st.lists(pieces, max_size=14).map("".join)
