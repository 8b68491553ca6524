"""Parsing of user talk pages and project pages from raw wikitext.

Talk pages are segmented into discussion threads at level-2 headings, and
threads into posts at signature occurrences. A signature is a link into the
User or User-talk namespace followed, on the same line, by a timestamp of
the default MediaWiki form ``HH:MM, D Month YYYY (UTC)`` that names a real
minute. Customized signatures lacking a user-namespace link are missed;
that recall limitation is accepted. Parsing never raises on malformed
wikitext; bad input degrades to fewer, larger threads or to unattributed
(dropped) text.

The parser hands on plain values: a talk page's owner is a name
(:func:`talk_page_owner`), and a signature is its author and where it ends.
A timestamp is checked, never built: what it says is not used downstream.
"""

from __future__ import annotations

import json
import logging
import re
import time
from bisect import bisect_left
from typing import Collection, Iterable, Iterator, Sequence

__all__ = [
    "canonical_username",
    "count_interactions",
    "extract_project_members",
    "read_pages_jsonl",
    "talk_page_owner",
    "DEFAULT_DELIVERY_AGENTS",
    "DEFAULT_MASS_MESSAGE_MARKERS",
]

log = logging.getLogger(__name__)

DEFAULT_DELIVERY_AGENTS = ("MediaWiki message delivery",)
# The MassMessage extension appends an HTML comment of this form to every drop.
DEFAULT_MASS_MESSAGE_MARKERS = ("Message sent by User:",)

_HEADING_RE = re.compile(r"^==([^=\n][^\n]*?)==[ \t]*$", re.MULTILINE)
# The name group is greedy, so it ends at the first character it excludes
# instead of trying the rest of the pattern after each character. It keeps
# the name's trailing whitespace, which canonical_username drops.
_USER_LINK_RE = re.compile(
    r"\[\[\s*[Uu]ser(?:[ _][Tt]alk)?\s*:\s*([^|\[\]#/]+)(?:[|#/][^\[\]]*)?\]\]",
    re.IGNORECASE,
)
# Month name -> (number, days); February gains a day in leap years.
_MONTHS = {
    name: (i, days)
    for i, (name, days) in enumerate(
        (
            ("January", 31), ("February", 28), ("March", 31), ("April", 30),
            ("May", 31), ("June", 30), ("July", 31), ("August", 31),
            ("September", 30), ("October", 31), ("November", 30), ("December", 31),
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


def talk_page_owner(title: str) -> str:
    """The canonical username of the user whose talk page (or subpage) ``title`` is.

    Raises:
        ValueError: if the title is not in the User-talk namespace, or its
            user part normalizes to an empty name.
    """
    m = _TALK_TITLE_RE.match(title)
    owner = canonical_username(m.group(1).split("/", 1)[0]) if m else ""
    if not owner:
        raise ValueError(f"not a user talk page title: {title!r}")
    return owner


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


def _iter_signatures(text: str, skip_headings: bool = False) -> Iterator[tuple[str, int]]:
    """Yield ``(author, end)`` for each valid signature occurrence.

    A valid occurrence is a timestamp of a real UTC minute (years 1 to
    9999, the Gregorian calendar) with at least one user-namespace link
    earlier on the same line; the last such link names the author (copes
    with trailing "(talk)" links and pings). ``end`` is where the timestamp
    match ends. With ``skip_headings``, a timestamp on a level-2 heading
    line is no signature, and its date is not checked.

    A user link admits no bracket after its opening ``[[``, so links never
    overlap or nest: the last link on the line is the one at the rightmost
    ``[[`` where the link pattern matches. The scan walks ``[[`` positions
    leftwards from the timestamp and stops at the first match.
    """
    this_year = time.gmtime().tm_year
    for ts_match in _timestamp_matches(text):
        ts_start = ts_match.start()
        line_start = text.rfind("\n", 0, ts_start) + 1
        if (
            skip_headings
            and text.startswith("==", line_start)
            and _HEADING_RE.match(text, line_start)
        ):
            continue
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
        hour, minute, day, year = int(hour), int(minute), int(day), int(year)
        month, days = _MONTHS[month_name]
        if month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
            days = 29
        if not (hour < 24 and minute < 60 and 1 <= day <= days and year >= 1):
            continue
        if year > this_year or (year, month, day) < _EARLIEST_PLAUSIBLE:
            log.warning(
                "timestamp outside plausible range kept: %04d-%02d-%02dT%02d:%02d:00+00:00",
                year, month, day, hour, minute,
            )
        yield user, ts_match.end()


def _thread_spans(text: str) -> list[tuple[str, int, int]]:
    """``(heading, body start, body end)`` per level-2 thread of a talk page.

    Content before the first heading forms an implicit thread with an empty
    heading (only if it contains any non-whitespace). A body starts where
    its heading line ends and ends where the next heading line starts.
    """
    matches = list(_HEADING_RE.finditer(text))
    first = matches[0].start() if matches else len(text)
    spans = [("", 0, first)] if text[:first].strip() else []
    ends = [m.start() for m in matches[1:]] + [len(text)]
    spans.extend((m.group(1).strip(), m.end(), end) for m, end in zip(matches, ends))
    return spans


def _signed_threads(
    text: str, signatures: Iterable[tuple[str, int]]
) -> list[tuple[str, int, int, list[tuple[str, int]]]]:
    """``(heading, body start, body end, signatures)`` per thread of a talk page.

    ``signatures`` are those of ``_iter_signatures(text, skip_headings=True)``,
    one scan of the whole page. Each goes to the thread whose body holds its
    end; signatures on heading lines belong to no thread. A timestamp never
    spans a heading line's ``==`` and cannot start before a body's leading
    newline, so this finds what a scan of each body alone would find.
    """
    spans = _thread_spans(text)
    starts = [start for _, start, _ in spans]
    threads = [(heading, start, end, []) for heading, start, end in spans]
    for signature in signatures:
        threads[bisect_left(starts, signature[1]) - 1][3].append(signature)
    return threads


def _is_mass_message(
    authors: Iterable[str], body: str, agents: Collection[str], markers: Sequence[str]
) -> bool:
    """True for a bot-delivered bulk drop (newsletter etc.): a delivery agent
    signed the thread or its body holds a delivery marker. Template messages
    signed by a person (warnings, barnstars, welcomes) are not mass messages.
    """
    if any(author in agents for author in authors):
        return True
    return any(marker in body for marker in markers)


def count_interactions(
    owner: str, text: str, agents: Collection[str], markers: Sequence[str]
) -> tuple[int, int, dict[str, int]]:
    """Count the posts of ``owner``'s talk page, whose wikitext is ``text``, building none.

    A post is a signature outside the page's level-2 heading lines, and it
    belongs to the thread whose body holds it. ``agents`` are the delivery
    agents' canonical usernames. Returns the number of posts, the number of
    those in mass-message threads, and, per author other than the page owner
    in order of first post, the number of their posts outside mass-message
    threads.

    Only a thread holding a marker or an agent's signature is a mass
    message, so the page is split into threads only when its text holds a
    marker or an agent signed it; otherwise every post counts.
    """
    signatures = list(_iter_signatures(text, skip_headings=True))
    kept = signatures
    if any(marker in text for marker in markers) or any(
        author in agents for author, _ in signatures
    ):
        kept = []
        for _, start, end, signed in _signed_threads(text, signatures):
            authors = [author for author, _ in signed]
            if not _is_mass_message(authors, text[start:end], agents, markers):
                kept.extend(signed)
    counts: dict[str, int] = {}
    for author, _ in kept:
        if author != owner:
            counts[author] = counts.get(author, 0) + 1
    return len(signatures), len(signatures) - len(kept), counts


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
        for author, _ in _iter_signatures(wikitext):
            members.add(author)
    return members


def read_pages_jsonl(
    source: Iterable[str], start: int = 1, keys: Sequence[str] = ("title", "wikitext")
) -> Iterator[dict]:
    """Read page dumps: one JSON object per line, with a string value at each of ``keys``.

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
        if not isinstance(obj, dict) or not all(isinstance(obj.get(k), str) for k in keys):
            raise ValueError(
                f"line {lineno}: page record needs a JSON object with string {', '.join(keys)}"
            )
        yield obj
