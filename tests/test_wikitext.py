import io
import json
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicomm.wikitext import (
    DEFAULT_DELIVERY_AGENTS,
    DEFAULT_MASS_MESSAGE_MARKERS,
    DiscussionThread,
    Post,
    TalkPage,
    _TIMESTAMP_RE,
    _timestamp_matches,
    canonical_username,
    extract_posts,
    extract_project_members,
    is_mass_message,
    parse_signature,
    parse_talk_page,
    posts_to_records,
    read_pages_jsonl,
    split_threads,
    write_posts_jsonl,
)

from oracles import reference_posts_jsonl, reference_project_members

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def utc(*args) -> datetime:
    return datetime(*args, tzinfo=timezone.utc)


class TestCanonicalUsername:
    def test_underscores_and_case(self):
        assert canonical_username("bob_smith") == "Bob smith"

    def test_whitespace_collapse(self):
        assert canonical_username("  Ann   van  Dyk ") == "Ann van Dyk"

    def test_unicode_first_letter(self):
        assert canonical_username("łukasz") == "Łukasz"

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, raw):
        once = canonical_username(raw)
        assert canonical_username(once) == once


class TestParseSignature:
    def test_default_signature(self):
        sig = parse_signature(
            "[[User:Alice|Alice]] ([[User talk:Alice|talk]]) 14:02, 11 February 2021 (UTC)"
        )
        assert sig is not None
        assert sig.user == "Alice"
        assert sig.timestamp == utc(2021, 2, 11, 14, 2)

    def test_no_signature(self):
        assert parse_signature("signed by nobody") is None

    def test_lowercase_and_underscores(self):
        sig = parse_signature("[[user:bob_smith|b]] 09:30, 1 May 2019 (UTC)")
        assert sig is not None
        assert sig.user == "Bob smith"
        assert sig.timestamp == utc(2019, 5, 1, 9, 30)

    def test_timestamp_without_user_link(self):
        assert parse_signature("meeting at 14:00, 10 June 2021 (UTC) sharp") is None

    def test_user_link_on_previous_line_does_not_sign(self):
        assert parse_signature("[[User:Alice|Alice]]\n10:00, 1 May 2021 (UTC)") is None

    def test_last_link_before_timestamp_wins(self):
        sig = parse_signature(
            "as [[User:Alice|Alice]] told [[User:Bob|Bob]] 10:00, 1 May 2021 (UTC)"
        )
        assert sig is not None and sig.user == "Bob"

    def test_implausible_year_kept_but_flagged(self, caplog):
        with caplog.at_level("WARNING"):
            sig = parse_signature("[[User:A|A]] 10:00, 1 May 1999 (UTC)")
        assert sig is not None
        assert sig.timestamp.year == 1999
        assert any("plausible range" in message for message in caplog.messages)


class TestTalkPage:
    def test_owner_from_title(self):
        assert TalkPage.from_page("User talk:Alice", "").owner == "Alice"

    def test_subpage_stripped(self):
        assert TalkPage.from_page("User talk:Dan/Archive 1", "").owner == "Dan"

    def test_underscored_title(self):
        assert TalkPage.from_page("User_talk:ivan_petrov", "").owner == "Ivan petrov"

    def test_non_talk_title_rejected(self):
        with pytest.raises(ValueError):
            TalkPage.from_page("Wikipedia:WikiProject Foo", "")


class TestSplitThreads:
    def test_two_headings(self):
        page = TalkPage.from_page(
            "User talk:X", "== A ==\nbody a\n== B ==\nbody b\n"
        )
        threads = split_threads(page)
        assert [t.heading for t in threads] == ["A", "B"]

    def test_no_headings_single_thread(self):
        page = TalkPage.from_page("User talk:X", "just text, no headings")
        threads = split_threads(page)
        assert len(threads) == 1 and threads[0].heading == ""

    def test_subsection_stays_inside(self):
        page = TalkPage.from_page(
            "User talk:X", "== A ==\ntop\n=== A.1 ===\nnested\n"
        )
        threads = split_threads(page)
        assert len(threads) == 1
        assert "=== A.1 ===" in threads[0].body

    def test_empty_page_has_no_threads(self):
        assert split_threads(TalkPage.from_page("User talk:X", "")) == []

    def test_preamble_becomes_implicit_thread(self):
        page = TalkPage.from_page("User talk:X", "hello\n== A ==\nbody\n")
        threads = split_threads(page)
        assert [t.heading for t in threads] == ["", "A"]


class TestExtractPosts:
    def test_two_signed_paragraphs(self):
        body = (
            "First point. [[User:A|A]] 10:00, 1 May 2021 (UTC)\n"
            ": Second point. [[User:B|B]] 11:00, 1 May 2021 (UTC)\n"
        )
        posts = extract_posts(body)
        assert [p.author for p in posts] == ["A", "B"]
        assert [p.depth for p in posts] == [0, 1]

    def test_unsigned_paragraph_dropped(self):
        body = (
            "Signed. [[User:A|A]] 10:00, 1 May 2021 (UTC)\n"
            "Unsigned trailing paragraph.\n"
        )
        assert len(extract_posts(body)) == 1

    def test_empty_body(self):
        assert extract_posts("") == []

    def test_template_message_flagged_and_kept(self):
        posts = extract_posts(
            "{{The Original Barnstar|well done}} [[User:A|A]] 10:00, 1 May 2021 (UTC)\n"
        )
        assert len(posts) == 1 and posts[0].is_template_message

    def test_depth_skips_subsection_heading(self):
        body = (
            "intro [[User:A|A]] 10:00, 1 May 2021 (UTC)\n"
            "=== sub ===\n"
            "* reply [[User:B|B]] 11:00, 1 May 2021 (UTC)\n"
        )
        posts = extract_posts(body)
        assert posts[1].depth == 1


def page_jsonl(text: str, title: str = "User talk:X") -> str:
    page = TalkPage.from_page(title, text)
    out = io.StringIO()
    write_posts_jsonl(posts_to_records(page, parse_talk_page(page)), out)
    return out.getvalue()


class TestPostRecordEdgeCases:
    def test_year_below_1000_is_not_zero_padded(self):
        line = page_jsonl("[[User:A|A]] 03:04, 2 January 0999 (UTC)\n")
        assert json.loads(line)["timestamp"] == "999-01-02T03:04:00Z"

    def test_non_ascii_author_written_unescaped(self):
        line = page_jsonl("[[User:łukasz_Ż|Ł]] 10:00, 1 May 2021 (UTC)\n")
        assert '"author": "Łukasz Ż"' in line
        assert "\\u" not in line

    def test_signature_in_heading_line_yields_no_post(self):
        text = "== Hi [[User:A|A]] 10:00, 1 May 2021 (UTC) ==\nunsigned body\n"
        threads = parse_talk_page(TalkPage.from_page("User talk:X", text))
        assert [t.heading for t in threads] == ["Hi [[User:A|A]] 10:00, 1 May 2021 (UTC)"]
        assert threads[0].posts == []

    @pytest.mark.parametrize("invalid", [
        "10:00, 30 February 2021 (UTC)",
        "24:00, 1 May 2021 (UTC)",
        "10:60, 1 May 2021 (UTC)",
        "10:00, 1 May 0000 (UTC)",
    ])
    def test_invalid_date_skipped_later_signature_on_line_kept(self, invalid):
        posts = extract_posts(f"[[User:A|A]] {invalid} [[User:B|B]] 11:00, 1 May 2021 (UTC)\n")
        assert [(p.author, p.timestamp) for p in posts] == [("B", utc(2021, 5, 1, 11, 0))]


class TestReadPagesJsonl:
    def test_errors_name_the_line_in_the_whole_file(self):
        good = '{"title": "User talk:A", "wikitext": ""}\n'
        lines = [good, "\n", '{"title": "User talk:B", "wikit', good]
        with pytest.raises(ValueError, match="^line 43: "):
            list(read_pages_jsonl(lines, start=41))
        with pytest.raises(ValueError, match="^line 12: page record needs"):
            list(read_pages_jsonl([good, '{"title": "User talk:C"}\n'], start=11))

    def test_blank_lines_skipped(self):
        lines = ["\n", '{"title": "User talk:A", "wikitext": "x"}\n', "  \n"]
        assert list(read_pages_jsonl(lines)) == [{"title": "User talk:A", "wikitext": "x"}]


class TestMassMessage:
    def thread(self, body, authors):
        t = DiscussionThread(heading="T", body=body)
        t.posts = [
            Post(author=a, timestamp=utc(2021, 1, 1, 0, 0), depth=0) for a in authors
        ]
        return t

    def test_delivery_agent_author(self):
        assert is_mass_message(self.thread("news", ["MediaWiki message delivery"]))

    def test_ordinary_exchange(self):
        assert not is_mass_message(self.thread("chat", ["Alice", "Bob"]))

    def test_barnstar_from_person_is_not_mass(self):
        assert not is_mass_message(self.thread("{{barnstar}} thanks", ["Alice"]))

    def test_marker_in_body(self):
        body = "<!-- Message sent by User:Coordinator@enwiki using the list -->"
        assert is_mass_message(self.thread(body, ["SurveyBot"]))

    def test_configured_agent_list(self):
        t = self.thread("x", ["Custom courier"])
        assert is_mass_message(t, delivery_agents=["Custom courier"])


class TestExtractProjectMembers:
    def test_signed_member_list(self):
        pages = [
            (
                "Wikipedia:WikiProject Cyclones/Members",
                "# [[User:Alice|Alice]] 10:00, 1 May 2021 (UTC)\n"
                "# [[User:Bob|Bob]] 10:05, 1 May 2021 (UTC)\n"
                "# [[User:Carol Díaz|Carol]] 10:10, 1 May 2021 (UTC)\n",
            )
        ]
        assert extract_project_members(pages) == {"Alice", "Bob", "Carol Díaz"}

    def test_no_signatures(self):
        assert extract_project_members([("Wikipedia:WikiProject X", "prose only")]) == set()

    def test_same_user_on_two_pages_counts_once(self):
        pages = [
            ("Wikipedia:WikiProject X", "[[User:A|A]] 10:00, 1 May 2021 (UTC)"),
            ("Wikipedia:WikiProject X/Members", "[[User:A|A]] 11:00, 2 May 2021 (UTC)"),
        ]
        assert extract_project_members(pages) == {"A"}

    def test_talk_page_title_rejected(self):
        with pytest.raises(ValueError):
            extract_project_members([("Wikipedia talk:WikiProject X", "")])
        with pytest.raises(ValueError):
            extract_project_members([("Wikipedia:WikiProject X/Talk", "")])


# -- whole-corpus golden test -------------------------------------------------


def load_corpus():
    pages = []
    with open(CORPUS / "pages.jsonl", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                pages.append(json.loads(line))
    expected = []
    with open(CORPUS / "expected_posts.jsonl", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                expected.append(json.loads(line))
    return pages, expected


def extract_all(pages):
    records = []
    for raw in pages:
        page = TalkPage.from_page(raw["title"], raw["wikitext"])
        threads = parse_talk_page(page)
        records.extend(posts_to_records(page, threads))
    return records


def test_golden_corpus_exact_match():
    pages, expected = load_corpus()
    assert len(expected) >= 30
    assert extract_all(pages) == expected


def test_parsing_is_deterministic():
    pages, _ = load_corpus()
    first = json.dumps(extract_all(pages), sort_keys=True)
    second = json.dumps(extract_all(pages), sort_keys=True)
    assert first == second


# -- properties ---------------------------------------------------------------

signature_bits = st.sampled_from(
    [
        "[[User:Ann|Ann]] 10:00, 1 May 2021 (UTC)",
        "[[user:bo_b|b]] 23:59, 31 December 2020 (UTC)",
        "10:00, 1 May 2021 (UTC)",
        "== heading ==",
        ": indented",
        "plain prose\n",
        "{{template|x}}",
    ]
)


@given(st.lists(st.one_of(st.text(max_size=40), signature_bits), max_size=12))
@settings(max_examples=150, deadline=None)
def test_post_count_bounded_by_timestamp_matches(chunks):
    text = "\n".join(chunks)
    page = TalkPage.from_page("User talk:X", text)
    total_posts = sum(len(t.posts) for t in parse_talk_page(page))
    assert total_posts <= len(_TIMESTAMP_RE.findall(text))


@given(st.text(max_size=400))
@settings(max_examples=150, deadline=None)
def test_parser_never_raises_on_arbitrary_wikitext(text):
    page = TalkPage.from_page("User talk:X", text)
    for thread in parse_talk_page(page):
        assert isinstance(thread.heading, str)


# -- the fast scan against the reference parser --------------------------------

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


@given(wikitexts)
@settings(max_examples=400, deadline=None)
def test_fast_scan_matches_reference_parser(text):
    title = "User talk:Zoë_Ng/Archive"
    assert page_jsonl(text, title) == reference_posts_jsonl(
        title, text, DEFAULT_DELIVERY_AGENTS, DEFAULT_MASS_MESSAGE_MARKERS
    )
    pages = [("Wikipedia:WikiProject X/Members", text)]
    assert extract_project_members(pages) == reference_project_members(pages)


@given(wikitexts)
@settings(max_examples=300, deadline=None)
def test_anchored_timestamp_scan_matches_plain_finditer(text):
    assert [m.span() for m in _timestamp_matches(text)] == [
        m.span() for m in _TIMESTAMP_RE.finditer(text)
    ]


# Characters json.dumps treats specially: quote, backslash, every control
# character, DEL, the two line separators JavaScript rejects, non-BMP text.
record_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\x7f", "\u2028", "\u2029", "é", "Ω", "日", "\U0001f600"]),
        st.characters(max_codepoint=0x1F),
        st.characters(),
    ),
    max_size=20,
)
post_records = st.fixed_dictionaries(
    {
        "page_owner": record_text,
        "thread": record_text,
        "author": record_text,
        "timestamp": record_text,
        "depth": st.integers(0, 20),
        "mass_message": st.booleans(),
    }
)


@given(st.lists(post_records, max_size=3))
@settings(max_examples=200, deadline=None)
def test_post_lines_equal_sorted_key_json_dumps(records):
    out = io.StringIO()
    assert write_posts_jsonl(records, out) == len(records)
    assert out.getvalue() == "".join(
        json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records
    )
