"""Seeded synthetic Wikiproject corpora for the benchmark.

A corpus is generated from a workload shape and a seed. Sizes (project
count, member counts, active counts, post totals, article scopes) come from
stratified quantiles of fixed distributions, so every seed yields a corpus of
nearly the same size and cost; the seed only decides who talks to whom, how
weights and pages are laid out, and where the tripwires land.

Member counts follow the full-scale reference snapshot's log-normal shape
(median 61, mean 136), uncut for ``wide`` and cut at 250 for ``crawl``. Talk
pages reuse the wikitext idioms of the bundled mini-wiki and plant its
tripwires, none of which may change a network:

* mass-message threads flagged by the delivery agent, and ones flagged only
  by the MassMessage marker comment, each signed by a fellow member;
* self-posts (owners replying on their own page), posts by non-members, and
  posts by editors of other projects;
* unsigned prose and unsigned-only threads;
* duplicate and non-main-namespace assessment rows, and rows of projects
  that are not configured.

The corpus keeps its own plan of ``(sender, owner, mass_message)`` posts;
the expected outputs in :mod:`check` are derived from that plan and never
from the package under test.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

DELIVERY_AGENT = "MediaWiki message delivery"
MARKER = (
    "<!-- Message sent by User:Courier@enwiki using the list at "
    "https://en.wikipedia.org/wiki/Wikipedia:Bulletin/list -->"
)

MONTHS = ["January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"]
FIRST = ["Alder", "Birch", "Cedar", "Dune", "Ember", "Fjord", "Gale", "Heath",
         "Isle", "Jasper", "Kestrel", "Linden", "Moss", "North", "Opal", "Pike",
         "Quill", "Rowan", "Sable", "Thorn", "Umber", "Vale", "Wren", "Yarrow"]
LAST = ["Brook", "Crane", "Dale", "Fern", "Glen", "Hollow", "Knoll", "Lark",
        "Marsh", "Nook", "Orchard", "Pond", "Reed", "Shore", "Tarn", "Wold"]
TOPICS = ["Rivers", "Birds", "Castles", "Comets", "Ferns", "Glaciers", "Harbours",
          "Islands", "Jazz", "Kites", "Lighthouses", "Mosses", "Novels", "Operas",
          "Puzzles", "Quarries", "Railways", "Saints", "Tramways", "Volcanoes",
          "Windmills", "Yachts", "Zeppelins", "Abbeys", "Bridges", "Canals"]
PHRASES = [
    "Could you look over the latest draft",
    "The infobox needs the new figures",
    "I archived the stale review",
    "Thanks for the quick copyedit",
    "The map colours look off to me",
    "Sources for the season are in",
    "I merged the duplicate stubs",
    "Peer review comments are posted",
    "Would you second the move request",
    "The citation templates are fixed now",
]
PROSE = [
    "Some background for anyone reading later.",
    "(Note left while the bot was down.)",
    "See the discussion linked from [[Talk:Main Page]] for context.",
    "Previous replies were archived last spring.",
]
OTHER_GRADES = ["B", "C", "Start", "Stub", "List"]


@dataclass(frozen=True)
class Shape:
    """Size and texture of one workload's corpus."""

    projects: int            # reference-shaped projects
    member_median: float     # median of the log-normal member-count law
    strength: float          # planned mean weighted degree of an active member
    thread_posts: int        # most posts one sender leaves in one thread
    extra_edges: float = 1.0  # random ties per active member beyond a spanning tree
    replies: float = 0.0     # chance an owner answers in-thread (self-post, deeper)
    tripwires: float = 0.3   # tripwire threads per talk page
    idle_pages: float = 0.3  # chance an inactive member still has a talk page
    giants: int = 0          # extra projects at the reference's largest size
    giant_members: int = 4000
    articles_median: float = 150.0
    member_cap: int | None = None  # largest reference-shaped project; None: the law uncut


# The reference snapshot's member counts: median 61, mean 136 -> sigma 1.266.
MEMBER_SIGMA = math.sqrt(2.0 * math.log(136.0 / 61.0))

SHAPES = {
    # Hundreds of projects with short pages, plus three at the reference's
    # largest size. Member counts follow the reference law uncut (its top
    # quantiles reach ~3000). Strength is cut far below the reference's
    # (mean 30, median 17), to ~94k posts in ~14.5 MB of talk pages. The
    # sparse ties, rare tripwires and few idle pages are chosen, not taken
    # from the reference: they keep talk pages short.
    # build_network rescans every post once per project, so the build stage
    # grows with projects x posts; the dense n x n walk matrices of the
    # largest projects set the metrics time and the peak memory.
    "wide": Shape(projects=500, member_median=61, strength=4.6,
                  thread_posts=2, extra_edges=0.2, tripwires=0.05, idle_pages=0.02,
                  giants=3),
    # Fetched through the fake API: one request per page, paged assessments;
    # owners answer in-thread and tripwires are frequent. Strength is the
    # reference median; the member cap keeps the crawl to ~2.7k requests.
    "crawl": Shape(projects=30, member_median=61, member_cap=250, strength=17.0,
                   thread_posts=3, replies=0.3, tripwires=0.4, idle_pages=0.5),
}


@dataclass
class Corpus:
    """Generated inputs plus the plan they were written from."""

    projects: list[str]                      # canonical names, sorted
    members: dict[str, list[str]]            # canonical project -> sorted members
    posts: list[tuple[str, str, bool]]       # (sender, owner, mass_message)
    quality: dict[str, tuple[int, int]]      # project -> (n_articles, n_quality)
    project_pages: list[dict]                # ingest records, request order
    talk_pages: list[dict]                   # existing member talk pages, by title
    assessments: list[tuple[str, str, str]]  # raw (project, article, grade) rows
    config: dict
    sizes: dict = field(default_factory=dict)

    def write_inputs(self, directory: Path) -> None:
        """Write the three ingest outputs, as a pre-seeded work dir holds them."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "project_pages.jsonl", "w", encoding="utf-8") as f:
            for record in self.project_pages:
                f.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        with open(directory / "talk_pages.jsonl", "w", encoding="utf-8") as f:
            for record in self.talk_pages:
                f.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        with open(directory / "assessments.csv", "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["project", "article", "grade"])
            writer.writerows(self.assessments)


def _stratified(rng: np.random.Generator, n: int, quantile) -> np.ndarray:
    """Values at the n evenly spaced quantiles of a law, in seeded order."""
    return rng.permutation(np.array([quantile((i + 0.5) / n) for i in range(n)]))


def _username(i: int) -> str:
    return f"{FIRST[i % len(FIRST)]} {LAST[(i // len(FIRST)) % len(LAST)]} {i}"


class _Writer:
    """Seeded wikitext idioms: timestamps, signature variants, threads."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.counter = 0

    def timestamp(self) -> str:
        r = self.rng.integers(0, 1 << 30)
        return (f"{r % 24:02d}:{(r >> 5) % 60:02d}, {1 + (r >> 11) % 28} "
                f"{MONTHS[(r >> 16) % 12]} {2008 + (r >> 20) % 13} (UTC)")

    def signature(self, user: str) -> str:
        self.counter += 1
        style = self.counter % 5
        if style == 0:
            link = f"[[User:{user}|{user}]] ([[User talk:{user}|talk]])"
        elif style == 1:
            link = f"[[User:{user.replace(' ', '_')}|{user.split()[0]}]]"
        elif style == 2:
            link = f"[[User talk:{user}|{user.split()[0]}]]"
        elif style == 3:
            link = f"— [[user:{user[0].lower()}{user[1:]}]]"
        else:
            link = f"[[User:{user}|{user}]] ([[Special:Contributions/{user}|contribs]])"
        return f"{link} {self.timestamp()}"

    def phrase(self) -> str:
        self.counter += 1
        return PHRASES[self.counter % len(PHRASES)]


def generate(workload: str, seed: int) -> Corpus:
    """Generate the corpus of ``workload`` from ``seed``; same seed, same bytes."""
    shape = SHAPES[workload]
    rng = np.random.default_rng([seed, sorted(SHAPES).index(workload)])
    w = _Writer(rng)
    ln = NormalDist(math.log(shape.member_median), MEMBER_SIGMA)
    n_projects = shape.projects + shape.giants

    # Member counts are laid out over the projects in one order for every
    # seed: the metrics stage allocates dense matrices project by project,
    # and its peak memory depends on the order of their sizes.
    member_counts = [
        int(min(shape.member_cap or math.inf, max(3, round(math.exp(ln.inv_cdf(q))))))
        for q in _stratified(np.random.default_rng(0), shape.projects, lambda q: q)
    ] + [shape.giant_members + 97 * k for k in range(shape.giants)]
    # Active shares are tied to member-count rank by a fixed low-discrepancy
    # sequence, not by the seed, so the dense work on the largest projects
    # is the same for every seed. Giants keep half their members active.
    order = sorted(range(shape.projects), key=lambda p: member_counts[p])
    active_shares = [0.5] * n_projects
    for rank, p in enumerate(order):
        active_shares[p] = 0.2 + 0.6 * ((rank * 0.6180339887) % 1.0)
    scopes = _stratified(
        rng, n_projects,
        lambda q: min(3000, max(8, round(math.exp(
            NormalDist(math.log(shape.articles_median), 1.0).inv_cdf(q))))))
    quality_rates = _stratified(rng, n_projects, lambda q: 0.01 + 0.09 * q)
    # Every tenth ordinary project has no Featured or Good Article and is
    # filtered out; giants always reach the walk metrics.
    no_quality = set(rng.permutation(shape.projects)[: shape.projects // 10].tolist())

    names = [f"{TOPICS[i % len(TOPICS)]} {i + 1}" for i in range(n_projects)]
    users: list[str] = []
    members: dict[str, list[str]] = {}
    posts: list[tuple[str, str, bool]] = []
    threads: dict[str, list[list[str]]] = {}  # owner -> threads (lists of lines)
    user_projects: dict[str, list[str]] = {}

    def add_thread(owner: str, lines: list[str]) -> None:
        threads.setdefault(owner, []).append(lines)

    for p, name in enumerate(names):
        m = member_counts[p]
        # A tenth of each roster are editors already in another project.
        shared = min(len(users), m // 10)
        roster = [users[i] for i in rng.choice(len(users), shared, replace=False)] if shared else []
        fresh = [_username(len(users) + i) for i in range(m - shared)]
        users.extend(fresh)
        roster.extend(fresh)
        roster = [roster[i] for i in rng.permutation(len(roster))]
        members[name] = sorted(roster)
        for user in roster:
            user_projects.setdefault(user, []).append(name)

        n_active = int(round(active_shares[p] * m))
        if n_active < 2:
            n_active = 0
        active = roster[:n_active]
        edges: set[tuple[int, int]] = set()
        for i in range(1, n_active):  # a random tree touches every active member
            j = int(rng.integers(0, i))
            edges.add((j, i))
        if n_active > 2:
            extra = int(round(shape.extra_edges * n_active))
            a = rng.integers(0, n_active, extra)
            b = rng.integers(0, n_active, extra)
            edges.update((min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist()) if x != y)
        edge_list = sorted(edges)
        if edge_list:
            total = max(len(edge_list), int(round(shape.strength * n_active / 2)))
            pull = rng.pareto(1.5, len(edge_list)) + 1.0
            weights = 1 + rng.multinomial(total - len(edge_list), pull / pull.sum())
        else:
            weights = []
        for (i, j), weight in zip(edge_list, weights):
            u, v = active[i], active[j]
            by_u = int(rng.binomial(int(weight), 0.5))
            for sender, owner, count in ((u, v, by_u), (v, u, int(weight) - by_u)):
                while count > 0:
                    size = min(count, int(rng.integers(1, shape.thread_posts + 1)))
                    count -= size
                    add_thread(owner, _conversation(w, shape, sender, owner, size, posts))

    # Pages of inactive members: most have none, which the crawl sees as missing.
    for user in users:
        if user not in threads and rng.random() < shape.idle_pages:
            visitor = f"Visitor {int(rng.integers(0, 1 << 20))}"
            posts.append((visitor, user, False))
            add_thread(user, ["== Welcome ==",
                              f"{{{{Welcome}}}} Glad to have you here. {w.signature(visitor)}"])

    owners = sorted(threads)
    n_tripwires = int(round(shape.tripwires * len(owners)))
    for k, owner_index in enumerate(rng.integers(0, len(owners), n_tripwires).tolist()):
        owner = owners[owner_index]
        colleagues = [u for pr in user_projects[owner] for u in members[pr] if u != owner]
        kind = k % 6
        if kind == 0:  # newsletter from a member, flagged by the delivery agent
            sender = colleagues[int(rng.integers(0, len(colleagues)))]
            posts.extend([(sender, owner, True), (DELIVERY_AGENT, owner, True)])
            add_thread(owner, [f"== Newsletter, issue {k} ==",
                               f"{{{{Project newsletter|{k}}}}} {w.signature(sender)}",
                               f": Delivered to all subscribers. {w.signature(DELIVERY_AGENT)}"])
        elif kind == 1:  # newsletter flagged only by the MassMessage marker
            sender = colleagues[int(rng.integers(0, len(colleagues)))]
            posts.append((sender, owner, True))
            add_thread(owner, ["== Project bulletin ==",
                               f"This month's bulletin. {w.signature(sender)}", MARKER])
        elif kind == 2:  # non-member
            visitor = f"Visitor {int(rng.integers(0, 1 << 20))}"
            posts.append((visitor, owner, False))
            add_thread(owner, ["== Question from a reader ==",
                               f"{w.phrase()}? {w.signature(visitor)}"])
        elif kind == 3:  # cross-project: any editor at all, usually a stranger
            sender = users[int(rng.integers(0, len(users)))]
            if sender != owner:
                posts.append((sender, owner, False))
                add_thread(owner, ["== Passing by ==", f"{w.phrase()}. {w.signature(sender)}"])
        elif kind == 4:  # self-post
            posts.append((owner, owner, False))
            add_thread(owner, ["== Note to self ==", f"Remember the tracker. {w.signature(owner)}"])
        else:  # unsigned only; a user link without a timestamp is no signature
            add_thread(owner, ["== Notes ==", PROSE[k % len(PROSE)],
                               f"Ask [[User:{owner}|{owner}]] about the archive."])

    talk_pages = []
    for owner in sorted(threads):
        page_threads = [threads[owner][i] for i in rng.permutation(len(threads[owner]))]
        if rng.random() < 0.1 and page_threads[0][0].startswith("== "):
            page_threads[0] = page_threads[0][1:]  # posts before any heading
        text = "\n".join(line for thread in page_threads for line in thread) + "\n"
        talk_pages.append({"title": f"User talk:{owner}", "wikitext": text})

    project_pages = []
    for name in names:
        roster = [members[name][i] for i in rng.permutation(len(members[name]))]
        cut = (len(roster) + 1) // 2
        split = {"": roster[:cut], "/Members": roster[cut:]}
        if len(roster) > 40:  # big projects also keep a participants list
            third = len(roster) // 3
            split = {"": roster[:third], "/Members": roster[third:2 * third],
                     "/Participants": roster[2 * third:]}
        for subpage, listed in split.items():
            lines = [f"This project coordinates articles about {name.lower()}.", "",
                     "== Participants ==", "# (position open)"]
            lines += [f"# {w.signature(user)}" for user in listed]
            project_pages.append({"project": name, "title": f"Wikipedia:WikiProject {name}{subpage}",
                                  "wikitext": "\n".join(lines) + "\n"})

    raw_names = []
    for p, name in enumerate(names):
        variants = [name, f"Wikipedia:WikiProject {name}", name[0].lower() + name[1:],
                    name.replace(" ", "_")]
        raw_names.append(variants[p % len(variants)])
    raw_names[0] = f"{names[0]} group"  # resolved through the alias table
    quality: dict[str, tuple[int, int]] = {}
    assessments: list[tuple[str, str, str]] = []
    for p, name in enumerate(names):
        n_articles = int(scopes[p])
        n_quality = 0 if p in no_quality else min(n_articles, max(1, round(n_articles * quality_rates[p])))
        quality[name] = (n_articles, n_quality)
        n_fa = int(rng.binomial(n_quality, 0.35))
        for i in range(n_articles):
            grade = "FA" if i < n_fa else "GA" if i < n_quality else OTHER_GRADES[i % 5]
            title = f"{name} article {i:04d}"
            assessments.append((raw_names[p], title, grade if i % 3 else grade.lower()))
            if i % 37 == 5:  # duplicate row under another spelling, lower grade
                assessments.append((f"WikiProject {name}", title, "Start"))
        assessments.append((raw_names[p], f"Talk:{name} article 0000", "FA"))
        assessments.append((raw_names[p], f"Template:{name} navbox", "GA"))
    assessments.append(("Unlisted things", "Unlisted article", "FA"))
    assessments = [assessments[i] for i in rng.permutation(len(assessments))]

    config = {
        "projects": raw_names,
        "project_aliases": {raw_names[0]: names[0]},
        "p_exponent": 0.5,
        "min_active_nodes": 5,
        "request_interval": 1.0,
        "max_retries": 3,
    }
    talk_bytes = sum(len(page["wikitext"].encode("utf-8")) for page in talk_pages)
    sizes = {
        "projects": n_projects,
        "members": len(users),
        "posts": len(posts),
        "talk_pages": len(talk_pages),
        "talk_mb": round(talk_bytes / 1e6, 3),
        "assessment_rows": len(assessments),
        "largest_project": max(member_counts),
    }
    return Corpus(sorted(names), members, posts, quality, project_pages,
                  talk_pages, assessments, config, sizes)


def _conversation(w: _Writer, shape: Shape, sender: str, owner: str, size: int,
                  posts: list) -> list[str]:
    """One thread of ``size`` posts by ``sender`` on ``owner``'s page.

    Owners may answer in-thread; those replies are self-posts and deepen the
    indentation, as on long real talk pages.
    """
    lines = [f"== {w.phrase()} =="]
    depth = 0
    for _ in range(size):
        indent = ":" * min(depth, 6)
        ping = f"@[[User:{owner}|{owner.split()[0]}]] " if w.counter % 7 == 0 else ""
        lines.append(f"{indent}{' ' if indent else ''}{ping}{w.phrase()}. {w.signature(sender)}")
        posts.append((sender, owner, False))
        depth += 1
        if shape.replies and w.rng.random() < shape.replies:
            if w.rng.random() < 0.3:
                lines.append(PROSE[w.counter % len(PROSE)])
            lines.append(f"{':' * min(depth, 6)} Done, thanks. {w.signature(owner)}")
            posts.append((owner, owner, False))
            depth += 1
    return lines
