"""Parsing of user talk pages and project pages from raw wikitext.

Talk pages are segmented into discussion threads at level-2 headings, and
threads into posts at signature occurrences. A signature is a link into the
User or User-talk namespace followed, on the same line, by a timestamp of
the default MediaWiki form ``HH:MM, D Month YYYY (UTC)``. Customized
signatures lacking a user-namespace link are missed; that recall limitation
is accepted. Parsing never raises on malformed wikitext; bad input degrades
to fewer, larger threads or to unattributed (dropped) text.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring
from typing import IO, Iterable, Iterator, Optional, Sequence

__all__ = [
    "Signature",
    "Post",
    "DiscussionThread",
    "TalkPage",
    "canonical_username",
    "parse_signature",
    "split_threads",
    "extract_posts",
    "is_mass_message",
    "parse_talk_page",
    "extract_project_members",
    "posts_to_records",
    "write_posts_jsonl",
    "read_pages_jsonl",
    "DEFAULT_DELIVERY_AGENTS",
    "DEFAULT_MASS_MESSAGE_MARKERS",
]

log = logging.getLogger(__name__)

DEFAULT_DELIVERY_AGENTS = ("MediaWiki message delivery",)
# The MassMessage extension appends an HTML comment of this form to every drop.
DEFAULT_MASS_MESSAGE_MARKERS = ("Message sent by User:",)

_HEADING_RE = re.compile(r"^==([^=\n][^\n]*?)==[ \t]*$", re.MULTILINE)
_USER_LINK_RE = re.compile(
    r"\[\[\s*[Uu]ser(?:[ _][Tt]alk)?\s*:\s*([^|\[\]#/]+?)\s*(?:[|#/][^\[\]]*)?\]\]",
    re.IGNORECASE,
)
_MONTHS = {
    name: i
    for i, name in enumerate(
        (
            "January", "February", "March", "April", "May", "June",
            "July", "August", "September", "October", "November", "December",
        ),
        start=1,
    )
}
_TIMESTAMP_RE = re.compile(
    r"(\d{1,2}):(\d{2}),\s*(\d{1,2})\s+"
    r"(January|February|March|April|May|June|July|August|September|October|November|December)"
    r"\s+(\d{4})\s+\(UTC\)"
)
# A pattern that opens with a character class makes the regex engine try a
# match at every position; one that opens with a literal lets it skip ahead
# to the next occurrence of that literal.
_MINUTES_RE = re.compile(r":\d\d,")
_TALK_TITLE_RE = re.compile(r"[Uu]ser[ _][Tt]alk:(.+)$")
# A post record as ``json.dumps(record, ensure_ascii=False, sort_keys=True)``
# writes it; the string fields go through the same escaper.
_POST_LINE = (
    '{"author": %s, "depth": %d, "mass_message": %s, '
    '"page_owner": %s, "thread": %s, "timestamp": %s}\n'
)

# Wikipedia went live in January 2001; signatures dated earlier are suspect.
_EARLIEST_PLAUSIBLE = (2001, 1, 15)


def canonical_username(raw: str) -> str:
    """Normalize a username the way MediaWiki normalizes titles.

    Underscores become spaces, whitespace runs collapse, and the first
    character is uppercased. Idempotent.
    """
    name = raw.replace("_", " ")
    name = " ".join(name.split())
    if not name:
        return ""
    return name[0].upper() + name[1:]


@dataclass(frozen=True)
class Signature:
    """Author attribution parsed from a user-namespace link plus UTC timestamp."""

    user: str
    timestamp: datetime


@dataclass(frozen=True)
class Post:
    """One signed message: author, signing time, indentation depth."""

    author: str
    timestamp: datetime
    depth: int
    is_template_message: bool = False


@dataclass
class DiscussionThread:
    """A talk-page section: heading, raw body, and the posts parsed from it."""

    heading: str
    body: str
    posts: list[Post] = field(default_factory=list)
    is_mass_message: bool = False


@dataclass(frozen=True)
class TalkPage:
    """A user talk page; ``owner`` is derived from the title prefix."""

    title: str
    owner: str
    wikitext: str

    @classmethod
    def from_page(cls, title: str, wikitext: str) -> "TalkPage":
        """Build from a raw page record, deriving the owner from the title.

        Raises:
            ValueError: if the title is not in the User-talk namespace.
        """
        m = _TALK_TITLE_RE.match(title)
        if not m:
            raise ValueError(f"not a user talk page title: {title!r}")
        owner = canonical_username(m.group(1).split("/", 1)[0])
        return cls(title=title, owner=owner, wikitext=wikitext)


def _timestamp_matches(text: str) -> Iterator[re.Match]:
    """The matches of ``_TIMESTAMP_RE.finditer(text)``, found from their ``:MM,``.

    A match holds one colon, right after its one- or two-digit hour, and ends
    with ``)``. So each ``:MM,`` belongs to at most one match, which starts
    one or two characters before the colon (the leftmost start wins, as in
    ``finditer``), and no two matches overlap.
    """
    match = _TIMESTAMP_RE.match
    for anchor in _MINUTES_RE.finditer(text):
        colon = anchor.start()
        ts_match = match(text, max(colon - 2, 0)) or match(text, colon - 1)
        if ts_match is not None:
            yield ts_match


def _iter_signatures(text: str) -> Iterator[tuple[str, datetime, int]]:
    """Yield ``(author, timestamp, end)`` for each valid signature occurrence.

    A valid occurrence is a timestamp with at least one user-namespace link
    earlier on the same line; the last such link names the author (copes
    with trailing "(talk)" links and pings). ``end`` is where the timestamp
    match ends.

    A user link admits no bracket after its opening ``[[``, so links never
    overlap or nest: the last link on the line is the one at the rightmost
    ``[[`` where the link pattern matches. The scan walks ``[[`` positions
    leftwards from the timestamp and stops at the first match.
    """
    this_year = datetime.now(timezone.utc).year
    for ts_match in _timestamp_matches(text):
        ts_start = ts_match.start()
        line_start = text.rfind("\n", 0, ts_start) + 1
        link = None
        pos = text.rfind("[[", line_start, ts_start)
        while pos >= 0:
            link = _USER_LINK_RE.match(text, pos, ts_start)
            if link:
                break
            pos = text.rfind("[[", line_start, pos + 1)
        if link is None:
            continue
        user = canonical_username(link.group(1))
        if not user:
            continue
        hour, minute, day, month_name, year = ts_match.groups()
        year, month, day = int(year), _MONTHS[month_name], int(day)
        try:
            ts = datetime(year, month, day, int(hour), int(minute), tzinfo=timezone.utc)
        except ValueError:
            continue
        if year > this_year or (year, month, day) < _EARLIEST_PLAUSIBLE:
            log.warning("timestamp outside plausible range kept: %s", ts.isoformat())
        yield user, ts, ts_match.end()


def parse_signature(segment: str) -> Optional[Signature]:
    """Return the first signature in ``segment``, or None if there is none."""
    for user, timestamp, _ in _iter_signatures(segment):
        return Signature(user=user, timestamp=timestamp)
    return None


def split_threads(page: TalkPage) -> list[DiscussionThread]:
    """Segment a talk page into threads at level-2 headings.

    Content before the first heading forms an implicit thread with an empty
    heading (only if it contains any non-whitespace). Lower-level headings
    (``===`` and deeper) stay inside their parent thread.
    """
    text = page.wikitext
    threads: list[DiscussionThread] = []
    matches = list(_HEADING_RE.finditer(text))
    preamble = text[: matches[0].start()] if matches else text
    if preamble.strip():
        threads.append(DiscussionThread(heading="", body=preamble))
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        threads.append(
            DiscussionThread(heading=m.group(1).strip(), body=text[m.end() : end])
        )
    return threads


def _first_content_line(text: str, start: int, end: int) -> str:
    # Blank lines and subsection headings are structure, not post content.
    while start < end:
        stop = text.find("\n", start, end)
        if stop < 0:
            stop = end
        line = text[start:stop]
        content = line.lstrip()
        if content and not content.startswith("="):
            return line
        start = stop + 1
    return ""


def extract_posts(body: str) -> list[Post]:
    """Split a thread body at signatures; unsigned trailing text yields no post.

    Each post runs from the end of the previous signature to the end of its
    own; depth is the count of leading ``:``/``*`` on the post's first
    content line (blank and subsection-heading lines are skipped).
    """
    posts: list[Post] = []
    cursor = 0
    for author, timestamp, end in _iter_signatures(body):
        first = _first_content_line(body, cursor, end)
        content = first.lstrip(":*")
        posts.append(
            Post(author, timestamp, len(first) - len(content), content.lstrip().startswith("{{"))
        )
        cursor = end
    return posts


def is_mass_message(
    thread: DiscussionThread,
    delivery_agents: Sequence[str] = DEFAULT_DELIVERY_AGENTS,
    markers: Sequence[str] = DEFAULT_MASS_MESSAGE_MARKERS,
) -> bool:
    """True for bot-delivered bulk drops (newsletters etc.).

    A thread is a mass message when any post author is a configured delivery
    agent or the body contains a configured delivery marker. Template
    messages signed by a person (warnings, barnstars, welcomes) are not mass
    messages.
    """
    return _is_mass_message(thread, {canonical_username(a) for a in delivery_agents}, markers)


def _is_mass_message(thread: DiscussionThread, agents: set[str], markers: Sequence[str]) -> bool:
    if any(p.author in agents for p in thread.posts):
        return True
    return any(marker in thread.body for marker in markers)


def parse_talk_page(
    page: TalkPage,
    delivery_agents: Sequence[str] = DEFAULT_DELIVERY_AGENTS,
    markers: Sequence[str] = DEFAULT_MASS_MESSAGE_MARKERS,
) -> list[DiscussionThread]:
    """Fully parse a talk page: threads, posts, and mass-message flags."""
    agents = {canonical_username(a) for a in delivery_agents}
    threads = split_threads(page)
    for thread in threads:
        thread.posts = extract_posts(thread.body)
        thread.is_mass_message = _is_mass_message(thread, agents, markers)
    return threads


def _is_talk_title(title: str) -> bool:
    ns, sep, rest = title.partition(":")
    if sep and rest and ns.strip().replace("_", " ").lower().endswith("talk"):
        return True
    # Also reject ".../Talk" style subpages.
    return any(part.strip().lower() == "talk" for part in title.split("/")[1:])


def extract_project_members(project_pages: Iterable[tuple[str, str]]) -> set[str]:
    """Union of signature authors over a project's pages (not talk pages).

    Member lists usually consist of user signatures, so one signature scan
    covers both the lists and other signed contributions to project pages.

    Raises:
        ValueError: if a talk-namespace title is passed in.
    """
    members: set[str] = set()
    for title, wikitext in project_pages:
        if _is_talk_title(title):
            raise ValueError(f"talk page passed to member extraction: {title!r}")
        for author, _, _ in _iter_signatures(wikitext):
            members.add(author)
    return members


def posts_to_records(page: TalkPage, threads: Iterable[DiscussionThread]) -> list[dict]:
    """Flatten parsed threads into JSON-ready post records.

    Timestamps read ``YYYY-MM-DDTHH:MM:SSZ``, except that years below 1000
    are not zero-padded (``999-01-02T03:04:00Z``), as glibc's ``strftime``
    wrote them.
    """
    records = []
    for thread in threads:
        for post in thread.posts:
            ts = post.timestamp
            records.append(
                {
                    "page_owner": page.owner,
                    "thread": thread.heading,
                    "author": post.author,
                    "timestamp": "%d-%02d-%02dT%02d:%02d:%02dZ"
                    % (ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second),
                    "depth": post.depth,
                    "mass_message": thread.is_mass_message,
                }
            )
    return records


def write_posts_jsonl(records: Iterable[dict], out: IO[str]) -> int:
    """Write post records as JSON lines; returns the number written.

    Each record has the keys that :func:`posts_to_records` gives it, and its
    line reads as ``json.dumps(record, ensure_ascii=False, sort_keys=True)``.
    """
    lines = [
        _POST_LINE
        % (
            encode_basestring(r["author"]),
            r["depth"],
            "true" if r["mass_message"] else "false",
            encode_basestring(r["page_owner"]),
            encode_basestring(r["thread"]),
            encode_basestring(r["timestamp"]),
        )
        for r in records
    ]
    out.write("".join(lines))
    return len(lines)


def read_pages_jsonl(source: Iterable[str], start: int = 1) -> Iterator[dict]:
    """Read page dumps: one JSON object per line with ``title`` and ``wikitext``.

    ``start`` is the number of the first line, so that errors in a slice of a
    file name the line's number in the whole file.
    """
    for lineno, line in enumerate(source, start=start):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if "title" not in obj or "wikitext" not in obj:
            raise ValueError(f"line {lineno}: page record needs title and wikitext")
        yield obj
