"""Title, author names, e-mails, affiliations, and the author-email mapping."""

from __future__ import annotations

import functools
import re
from importlib import resources
from itertools import groupby
from typing import NamedTuple

from .context import DocumentContext
from .crfmodel import CrfModel, viterbi_decode
from .features import (LABELING_TASKS, SUPERSCRIPT_TO_ASCII, is_marker,
                       token_features)
from .model import Token

OTHER_LABEL, TITLE_LABEL = LABELING_TASKS["title"].labels
AUTHOR_LABEL = LABELING_TASKS["author"].labels[1]

# Candidate tokens for author names must fall in the first chunk region or
# within this many tokens after the title.
AUTHOR_WINDOW = 120
MAX_AUTHOR_RUN = 5

# Function words that never occur inside a person name; stands in for the
# POS-tag false-positive filter without a tagger dependency.
NAME_STOPWORDS = frozenset("""
a an and are at by for from in is of on or the to with university institute
department college research laboratories corporation email abstract
""".split())

NAME_TOKEN = re.compile(r"^[A-Z][A-Za-z'\-]*$")


class AuthorName(NamedTuple):
    """An author's name in first, middle and last parts."""

    first: str
    middle: str
    last: str

    @property
    def full(self) -> str:
        return " ".join(p for p in (self.first, self.middle, self.last) if p)


class EmailAddress(NamedTuple):
    """An e-mail address, split at the ``@``."""

    user: str
    domain: str

    @property
    def address(self) -> str:
        return f"{self.user}@{self.domain}"


class Affiliation(NamedTuple):
    """An affiliation line and its author marker if it has one."""

    text: str
    marker: str | None = None


class AuthorRecord(NamedTuple):
    """An author with the e-mail address and affiliation mapped to them."""

    name: AuthorName
    email: EmailAddress | None = None
    affiliation: Affiliation | None = None


def load_lexicon(name: str) -> list[str]:
    """Bundled lexicon: UTF-8, one entry per line, '#' comments."""
    text = resources.files("scholarparse.data").joinpath(name).read_text("utf-8")
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


def title_sequences(ctx: DocumentContext):
    """The title labeler's (tokens, features) sequences: the first chunk's
    tokens, which are the first in the document, or none without chunks."""
    if not ctx.chunks:
        return []
    tokens = list(ctx.chunks[0].tokens)
    return [(tokens, token_features(tokens, range(len(tokens)),
                                    ctx.token_count, ctx.body_font))]


def extract_title(ctx: DocumentContext, title_model: CrfModel) -> list[Token]:
    """Tokens the title labeler marks in the first chunk; may be empty."""
    return [t for tokens, feats in title_sequences(ctx)
            for t, lab in zip(tokens, viterbi_decode(title_model, feats))
            if lab == TITLE_LABEL]


def title_fallback(first_page_chunks) -> list[Token]:
    """Largest-font chunk of the first page, used when the labeler returns
    nothing."""
    if not first_page_chunks:
        return []
    best = max(first_page_chunks, key=lambda c: c.avg_font_size)
    return list(best.tokens)


def _lower_quartile(values):
    values = sorted(values)
    return values[len(values) // 4] if values else 0.0


def _split_runs(tokens: list[Token]) -> list[list[Token]]:
    """Split a consecutive labeled run into per-author groups.

    The reference gap is the lower quartile of same-row gaps rather than the
    median: separator gaps between adjacent authors can make up half of all
    gaps, which would drag the median up to the separator width itself.
    """
    if not tokens:
        return []
    gaps = []
    for a, b in zip(tokens, tokens[1:]):
        if abs(a.baseline_y - b.baseline_y) < 1.0:
            gaps.append(b.x - (a.x + a.width))
    word_gap = _lower_quartile([g for g in gaps if g > 0])
    runs: list[list[Token]] = [[tokens[0]]]
    for a, b in zip(tokens, tokens[1:]):
        new_row = abs(a.baseline_y - b.baseline_y) >= 1.0
        wide = word_gap > 0 and (b.x - (a.x + a.width)) > 2 * word_gap
        if new_row or wide or a.text.endswith(","):
            runs.append([b])
        else:
            runs[-1].append(b)
    # Separator tokens ("and", "&", a comma of its own) split rather than
    # join names.
    split_runs: list[list[Token]] = []
    for run in runs:
        current: list[Token] = []
        for tok in run:
            if tok.text.strip(",").lower() in {"and", "&", ""}:
                if current:
                    split_runs.append(current)
                current = []
            else:
                current.append(tok)
        if current:
            split_runs.append(current)
    return split_runs


def _run_to_name(run: list[Token]) -> AuthorName | None:
    words = [t.text.rstrip(",") for t in run]
    if not words or len(words) > MAX_AUTHOR_RUN:
        return None
    for w in words:
        if not NAME_TOKEN.match(w) or w.lower() in NAME_STOPWORDS:
            return None
    if len(words) == 1:
        return AuthorName(first=words[0], middle="", last=words[0])
    return AuthorName(first=words[0], middle=" ".join(words[1:-1]),
                      last=words[-1])


def author_sequences(ctx: DocumentContext, title_span: list[Token]):
    """The author labeler's (tokens, features) sequences: the first chunk
    and the AUTHOR_WINDOW first-page tokens after ``title_span``, a span of
    the first page in reading order; none if that page has no chunks.  An
    index among its tokens is a document position (see ``context``)."""
    stream = [t for c in ctx.first_page_chunks for t in c.tokens]
    if not stream:
        return []
    last = title_span[-1] if title_span else None
    title_end = next((i + 1 for i, t in enumerate(stream) if t is last), 0)
    first_len = len(ctx.chunks[0].tokens)
    after = range(max(first_len, title_end),
                  min(title_end + AUTHOR_WINDOW, len(stream)))
    indices = [*range(first_len), *after]
    tokens = [stream[i] for i in indices]
    return [(tokens, token_features(tokens, indices, ctx.token_count,
                                    ctx.body_font))]


def extract_author_names(ctx: DocumentContext, title_span: list[Token],
                         author_model: CrfModel) -> list[AuthorName]:
    """Author names in the AUTHOR-labeled runs outside the title."""
    title_ids = {id(t) for t in title_span}
    names: list[AuthorName] = []
    for candidates, feats in author_sequences(ctx, title_span):
        labels = viterbi_decode(author_model, feats)
        for named, run in groupby(zip(candidates, labels), lambda pair: (
                pair[1] == AUTHOR_LABEL and id(pair[0]) not in title_ids)):
            if named:
                names.extend(n for r in _split_runs([t for t, _ in run])
                             if (n := _run_to_name(r)) is not None)
    return names


# E-mail group patterns.  Group-with-subdomains must run before the plain
# bracket group, and both bracket/brace groups before the plain address.
_P_SUBDOMAIN_GROUP = re.compile(r"\[([^\[\]]*@[^\[\]]*)\]\s*\.\s*([A-Za-z0-9.-]+)")
_P_BRACE_GROUP = re.compile(r"\{([^{}@]*)\}\s*@\s*([A-Za-z0-9.-]+)")
_P_BRACKET_GROUP = re.compile(r"\[([^\[\]@]*)\]\s*@\s*([A-Za-z0-9.-]+)")
_P_PLAIN = re.compile(r"([A-Za-z0-9._%+-]+)@([A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+)")


def expand_email_group(text: str) -> list[EmailAddress]:
    """Expand the four observed e-mail writing patterns into addresses."""
    results: list[tuple[int, EmailAddress]] = []
    remaining = text

    def consume(pattern, builder):
        nonlocal remaining
        out = []
        for m in pattern.finditer(remaining):
            out.extend((m.start(), e) for e in builder(m))
        remaining = pattern.sub(lambda m: " " * len(m.group(0)), remaining)
        results.extend(out)

    consume(_P_SUBDOMAIN_GROUP, _expand_subdomain_group)
    consume(_P_BRACE_GROUP, _expand_plain_group)
    consume(_P_BRACKET_GROUP, _expand_plain_group)
    consume(_P_PLAIN, lambda m: [EmailAddress(m.group(1), m.group(2))])
    results.sort(key=lambda pair: pair[0])
    return [e for _, e in results]


def _expand_plain_group(m) -> list[EmailAddress]:
    domain = m.group(2).strip(".")
    out = []
    for user in m.group(1).split(","):
        user = user.strip()
        if user:
            out.append(EmailAddress(user, domain))
    return out


def _expand_subdomain_group(m) -> list[EmailAddress]:
    suffix = m.group(2).strip(".")
    out = []
    for entry in m.group(1).split(","):
        entry = entry.strip()
        if "@" not in entry:
            continue
        user, sub = entry.split("@", 1)
        domain = f"{sub.strip()}.{suffix}" if sub.strip() else suffix
        out.append(EmailAddress(user.strip(), domain))
    return out


def extract_emails(ctx: DocumentContext) -> list[EmailAddress]:
    """All addresses found on the first page, de-duplicated in occurrence
    order.

    Each first-page chunk is scanned as one text so that bracket groups
    wrapped over several lines still expand.
    """
    seen = set()
    out = []
    for text in (c.text for c in ctx.first_page_chunks):
        if "@" not in text:
            continue
        for email in expand_email_group(text):
            if email.address not in seen:
                seen.add(email.address)
                out.append(email)
    return out


@functools.cache
def _affiliation_cues() -> frozenset[str]:
    """Lower-cased institution cues and country names."""
    return frozenset(entry.lower()
                     for name in ("affiliation_cues.txt", "countries.txt")
                     for entry in load_lexicon(name))


def extract_affiliations(ctx: DocumentContext) -> list[Affiliation]:
    """First-page chunks carrying an institution or country cue."""
    cue_set = _affiliation_cues()
    out = []
    for chunk in ctx.first_page_chunks:
        if not any(t.text.strip(",.;").lower() in cue_set
                   for t in chunk.tokens):
            continue
        marker = None
        text_tokens = chunk.tokens
        lead = chunk.tokens[0]
        if is_marker(lead):
            marker = lead.text.translate(SUPERSCRIPT_TO_ASCII).strip()
            if len(lead.text) == 1 or lead.sup_flag:
                text_tokens = chunk.tokens[1:]
            else:
                marker = lead.text[0].translate(SUPERSCRIPT_TO_ASCII)
        out.append(Affiliation(text=" ".join(t.text for t in text_tokens),
                               marker=marker))
    return out


def _initials(name: AuthorName) -> str:
    parts = [name.first] + name.middle.split()
    return "".join(p[0] for p in parts if p)


def map_authors_to_emails(names: list[AuthorName],
                          emails: list[EmailAddress]) -> list[AuthorRecord]:
    """Pair authors with e-mails: substring, abbreviation, then position."""
    # The e-mail given to each name so far, by the name's position.
    given: list[EmailAddress | None] = [None] * len(names)
    taken: set[int] = set()

    def clean(s: str) -> str:
        return re.sub(r"[^a-z]", "", s.lower())

    def assign(matches) -> None:
        """Give each author without an e-mail the first untaken e-mail
        whose cleaned user part ``matches(name, user)``."""
        for k, name in enumerate(names):
            if given[k] is not None:
                continue
            for j, email in enumerate(emails):
                if j not in taken and matches(name, clean(email.user)):
                    given[k] = email
                    taken.add(j)
                    break

    # Rule 1: substring match between username and first/last name.
    assign(lambda name, user: any(
        (len(part) >= 4 and part in user) or (len(user) >= 4 and user in part)
        for part in (clean(name.first), clean(name.last))))
    # Rule 2: abbreviated full name as username.
    assign(lambda name, user: user in {
        clean(name.first)[:1] + clean(name.last),
        clean(_initials(name)) + clean(name.last)})

    # Rule 3: leftovers paired by order of occurrence.
    leftover_emails = [j for j in range(len(emails)) if j not in taken]
    leftover_names = [k for k in range(len(names)) if given[k] is None]
    for k, j in zip(leftover_names, leftover_emails):
        given[k] = emails[j]
    return [AuthorRecord(name, email) for name, email in zip(names, given)]
