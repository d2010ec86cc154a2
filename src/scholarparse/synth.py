"""Deterministic synthetic article generator with exact ground truth.

Emits a schema-conforming rich-XML article (title block, authors with
e-mails in one of the four observed group patterns, affiliations, sections,
captions, footnotes, URLs, bibliography with planted citations) plus the
GroundTruth record describing exactly what was planted.  Four style
templates cover single/two column layouts and indexed/author-year
citations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bibliography import INDEXED_STYLES
from .evaluate import GroundTruth
from .ingest import document_to_xml
from .model import Document, Line, Page, Token
from .styles import STYLES

PAGE_W, PAGE_H = 612.0, 792.0
MARGIN = 60.0
BODY_FONT = 10.0
LEAD = 13.0
CHAR_W = 0.5  # width of one character as a fraction of the font size
SPACE_W = 5.0
BOTTOM = 700.0  # main flow stops here; footnotes go below
COL_GAP = 18.0
COL_W = (PAGE_W - 2 * MARGIN - COL_GAP) / 2

TITLE_WORDS = """Robust Adaptive Neural Statistical Framework Extraction
Analysis Learning Models Documents Semantic Parsing Structured Corpus
Annotation Inference Scalable Graphical Language Retrieval""".split()

BODY_WORDS = """the latent model learns structure over observed tokens and
produces smooth estimates under mild assumptions while keeping runtime low
for long inputs we describe a simple training scheme that converges quickly
and generalizes across domains our experiments show consistent gains with
small variance the proposed approach remains stable when inputs are noisy
and scales linearly in sequence length which makes deployment practical
results improve steadily as more supervision becomes available""".split()

FIRST_NAMES = """Mayank Pawan Animesh Barbara Carlos Devika Elena Farhan
Grace Hiroshi Irene Jorge Kavita Liang Monica Nadia Oliver Priya Quentin
Rafael Sofia Tomas""".split()

LAST_NAMES = """Singh Goyal Mukherjee Alvarez Bennett Chatterjee Dimitrov
Eriksen Fischer Garcia Hansen Iyer Johansson Kowalski Larsen Moreau Novak
Okafor Petrov Quintana Rossi Schmidt""".split()

REF_SURNAMES = """Lopez Ambati Baldwin Carreras Daume Eisner Finkel Gildea
Haghighi Isozaki Jurafsky Koehn Lapata Manning Nivre Och Pado Quirk Ratnaparkhi
Smith Toutanova Uszkoreit""".split()

AFFILIATION_TEMPLATES = [
    ("Department of Computer Science", "Indian Institute of Technology, Kharagpur, India"),
    ("School of Computing", "National University of Distant Learning, Singapore"),
    ("Machine Intelligence Laboratories", "Federal Technical University, Germany"),
    ("Language Technologies Institute", "Mountain State College, USA"),
]

# (heading, generic-section) in canonical article order.
SECTION_POOL = [
    ("Introduction", "Background"),
    ("Related Work", "Background"),
    ("Datasets", "Datasets"),
    ("Methodology", "Method"),
    ("Proposed Framework", "Method"),
    ("Experiments", "Result/Evaluation"),
    ("Results", "Result/Evaluation"),
    ("Evaluation", "Result/Evaluation"),
    ("Discussion", "Discussion/Conclusion"),
    ("Conclusion", "Discussion/Conclusion"),
]

DATASET_URL_PATHS = ["datasets/v1", "datasets/acl", "dumps/enwiki", "data/parallel"]
PLAIN_URL_PATHS = ["tools/parser", "projects/home", "demo/view", "code/release"]
URL_HOSTS = ["example.org", "corpus.example.org", "research.example.net"]

# The rendered text of each citation style row.  The expected extractor
# match is the text itself, except that row 13 drops its parentheses.
CITATION_FORMATS = {
    1: "{surname} et al. [{index}]",
    2: "{surname} [{index}]",
    3: "{surname} et al.[{index}]",
    4: "{surname} et al., {year}a",
    5: "{surname} et al., {year}",
    6: "{surname} et al., ({year})",
    7: "{surname} et al. {year}",
    8: "{surname} et al. ({year})",
    9: "{surname} and {surname2} ({year})",
    10: "{surname} & {surname2} ({year})",
    11: "{surname} and {surname2}, {year}",
    12: "{surname} & {surname2}, {year}",
    13: "({surname}, {year})",
    14: "{surname} {year}",
    15: "{surname} ({year})",
    16: "[{index}]",
}
INDEXED_CITE_STYLES = sorted(INDEXED_STYLES)
AUTHOR_YEAR_CITE_STYLES = sorted(CITATION_FORMATS.keys()
                                 - set(INDEXED_CITE_STYLES))


@dataclass
class _Word:
    """One word to lay out, with its font, style and gap to the next word."""

    text: str
    font: float = BODY_FONT
    bold: bool = False
    italic: bool = False
    gap_after: float = SPACE_W
    raised: bool = False  # superscript marker


def _width(word: _Word) -> float:
    return CHAR_W * word.font * len(word.text)


def _line(words: list[_Word], x: float, base: float, page_no: int) -> Line:
    """One line of words laid out left to right from x on a baseline."""
    tokens = []
    for w in words:
        y = base - w.font - (3.0 if w.raised else 0.0)
        tokens.append(Token(
            text=w.text, page_no=page_no, x=x, y=y, width=_width(w),
            height=w.font, font_size=w.font, bold=w.bold, italic=w.italic,
            font_name="Bold" if w.bold else "Regular"))
        x += _width(w) + w.gap_after
    return Line(tokens=tuple(tokens), baseline_y=base)


class _Writer:
    """Greedy line-filling layout over single or double column pages; each
    page keeps its footnotes beside its lines."""

    def __init__(self, two_col: bool):
        self.two_col = two_col
        self.width = COL_W if two_col else PAGE_W - 2 * MARGIN
        self.pages: list[list[Line]] = [[]]
        self.notes: list[list[list[_Word]]] = [[]]
        self.col = 0
        self.y = MARGIN

    def _advance_region(self):
        if self.two_col and self.col == 0:
            self.col = 1
        else:
            self.pages.append([])
            self.notes.append([])
            self.col = 0
        self.y = MARGIN

    def vspace(self, pts: float):
        self.y += pts
        if self.y > BOTTOM:
            self._advance_region()

    def _emit_line(self, words: list[_Word], indent: float):
        if self.y + LEAD > BOTTOM:
            self._advance_region()
        self.y += LEAD
        x = MARGIN + self.col * (COL_W + COL_GAP)
        self.pages[-1].append(_line(words, x + indent, self.y,
                                    len(self.pages)))

    def flow(self, words: list[_Word], indent_continuation: float = 0.0):
        """Wrap words into lines within the current column; every line but
        the first starts indent_continuation right of the margin."""
        line: list[_Word] = []
        used = indent = 0.0
        for w in words:
            if line and used + _width(w) > self.width - indent:
                self._emit_line(line, indent)
                line, used, indent = [], 0.0, indent_continuation
            line.append(w)
            used += _width(w) + w.gap_after
        if line:
            self._emit_line(line, indent)

    def build(self, source_id: str) -> Document:
        pages = []
        for number, (lines, notes) in enumerate(zip(self.pages, self.notes),
                                                1):
            # wide spacing keeps consecutive notes in separate chunks
            lines = lines + [_line(words, MARGIN, PAGE_H - 64.0 + 24.0 * k,
                                   number) for k, words in enumerate(notes)]
            lines.sort(key=lambda l: l.baseline_y)
            pages.append(Page(number=number, width=PAGE_W, height=PAGE_H,
                              lines=tuple(lines)))
        return Document(source_id=source_id, pages=tuple(pages))


def _words(texts, **kw) -> list[_Word]:
    return [_Word(text=t, **kw) for t in texts]


def _sentence(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(BODY_WORDS) for _ in range(n)]


def generate_synthetic_document(style: str, seed: int,
                                source_id: str = "") -> tuple[bytes, GroundTruth]:
    """One rich-XML article and its exact ground truth, deterministic in seed."""
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}")
    rng = random.Random((STYLES.index(style) + 1) * 1_000_003 + seed)
    indexed = style in ("single-col-numbered", "two-col-indexed")
    gt = GroundTruth()
    writer = _Writer(two_col=style.startswith("two-col"))

    def heading(text: str):
        writer.vspace(14)
        writer.flow(_words(text.split(), font=12.0, bold=True))
        gt.section_headings.append(text)
        writer.vspace(2)

    def url(paths: list[str]) -> str:
        text = (f"http://{rng.choice(URL_HOSTS)}/{rng.choice(paths)}"
                f"{len(gt.urls)}")
        gt.urls.append(text)
        return text

    # --- references (prepared first so citations can point at them) ---
    ref_entries = []
    for i, surname in enumerate(
            rng.sample(REF_SURNAMES, rng.randint(5, 9)), 1):
        year = rng.randint(1995, 2020)
        first = rng.choice(FIRST_NAMES)
        title_words = " ".join(_sentence(rng, rng.randint(4, 7)))
        ref_entries.append((i, surname, year,
                            f"{surname}, {first}. {year}. {title_words}."))
    gt.references = [entry for _, _, _, entry in ref_entries]

    # --- title ---
    gt.title = " ".join(rng.sample(TITLE_WORDS, rng.randint(4, 7)))
    writer.flow(_words(gt.title.split(), font=17.0, bold=True))

    # --- authors ---
    n_authors = rng.randint(2, 4)
    firsts = rng.sample(FIRST_NAMES, n_authors)
    lasts = rng.sample(LAST_NAMES, n_authors)
    for first, last in zip(firsts, lasts):
        middle = rng.choice(FIRST_NAMES) if rng.random() < 0.25 else ""
        while middle in (first, last) or middle in firsts:
            middle = rng.choice(FIRST_NAMES)
        gt.authors.append((first, middle, last))
    names = [[part for part in author if part] for author in gt.authors]
    writer.vspace(4)
    author_words: list[_Word] = []
    for parts in names:
        author_words += _words(parts, font=11.0, bold=True)
        author_words[-1].gap_after = 30.0
    writer.flow(author_words)

    # --- affiliation ---
    gt.affiliations = list(rng.choice(AFFILIATION_TEMPLATES))
    writer.vspace(4)
    for text in gt.affiliations:
        writer.flow(_words(text.split(), font=10.0, italic=True))

    # --- e-mails (one of the four group patterns) ---
    pattern = rng.randint(1, 4)
    users = [parts[0].lower() for parts in names]
    domain = "cse.example.org"
    if pattern < 4:
        gt.emails = [f"{u}@{domain}" for u in users]
        if pattern == 1:
            rendered = " ".join(gt.emails)
        else:
            left, right = "{}" if pattern == 2 else "[]"
            rendered = left + ", ".join(users) + right + "@" + domain
    else:
        subs = ["cse" if i % 2 == 0 else "ee" for i in range(len(users))]
        rendered = ("[" + ", ".join(f"{u}@{s}" for u, s in zip(users, subs))
                    + "].example.org")
        gt.emails = [f"{u}@{s}.example.org" for u, s in zip(users, subs)]
    gt.author_email = [(" ".join(parts), email)
                       for parts, email in zip(names, gt.emails)]
    writer.vspace(4)
    writer.flow(_words(rendered.split(), font=8.0))

    # --- abstract ---
    heading("Abstract")
    writer.flow(_words(_sentence(rng, rng.randint(30, 45))))

    # --- sections with citations, URLs, captions, footnotes ---
    datasets = SECTION_POOL.index(("Datasets", "Datasets"))
    chosen = sorted(rng.sample(range(len(SECTION_POOL)), rng.randint(4, 7)))
    if rng.random() < 0.8 and datasets not in chosen:
        chosen = sorted(set(chosen) | {datasets})

    cite_styles = INDEXED_CITE_STYLES if indexed else AUTHOR_YEAR_CITE_STYLES
    for s_i, pool_i in enumerate(chosen):
        name = SECTION_POOL[pool_i][0]
        heading(f"{s_i + 1} {name}" if indexed else name)
        for _ in range(rng.randint(2, 4)):
            words = _sentence(rng, rng.randint(35, 55))
            insertions: list[tuple[int, list[str]]] = []
            slots = list(range(2, len(words) - 8))
            rng.shuffle(slots)
            for _ in range(rng.randint(0, 2)):
                style_id = rng.choice(cite_styles)
                ref_i, surname, year, _entry = rng.choice(ref_entries)
                ref2 = rng.choice([r for r in ref_entries if r[0] != ref_i])
                cite = CITATION_FORMATS[style_id].format(
                    surname=surname, surname2=ref2[1], year=year, index=ref_i)
                ordinals = [ref_i]
                if style_id == 16 and rng.random() < 0.5:
                    ordinals = [ref_i, ref2[0]]
                    cite = f"[{ref_i}, {ref2[0]}]"
                match = cite[1:-1] if style_id == 13 else cite
                gt.citations.append(match)
                gt.cite_ref += [(match, str(o)) for o in ordinals]
                insertions.append((slots.pop(), cite.split()))
            if rng.random() < 0.25:
                paths = (DATASET_URL_PATHS if name == "Datasets"
                         else PLAIN_URL_PATHS)
                insertions.append((slots.pop(),
                                   ["see", url(paths), "for", "details"]))
            for pos, extra in sorted(insertions, reverse=True):
                words[pos:pos] = extra
            writer.flow(_words(words))
            writer.vspace(13)
        if rng.random() < 0.4:
            writer.vspace(13)
            caption = " ".join(_sentence(rng, rng.randint(5, 8)))
            kind, heads = (("Figure", gt.figure_headings)
                           if rng.random() < 0.5
                           else ("Table", gt.table_headings))
            heads.append(f"{kind} {len(heads) + 1}: {caption}.")
            row = _words(heads[-1].split(), font=9.0, bold=True)
            if kind == "Table":
                row += _words(_sentence(rng, 4), font=9.0)
            writer.flow(row)
            writer.vspace(13)
        # no footnote in or just before the Datasets section
        if rng.random() < 0.3 and datasets not in chosen[s_i:s_i + 2]:
            note_words = _sentence(rng, rng.randint(5, 8))
            if rng.random() < 0.6:
                note_words.append(url(PLAIN_URL_PATHS))
            gt.footnotes.append(" ".join(note_words))
            writer.notes[-1].append(
                [_Word(text=str(len(gt.footnotes)), font=6.0, raised=True,
                       gap_after=2.0)] + _words(note_words, font=8.0))

    # --- reference section ---
    heading(f"{len(chosen) + 1} References" if indexed else "References")
    hanging = style == "single-col-unnumbered"
    for i, _surname, _year, entry in ref_entries:
        lead = f"[{i}] " if indexed else "" if hanging else f"{i}. "
        writer.flow(_words((lead + entry).split()),
                    indent_continuation=12.0 if hanging else 0.0)

    doc = writer.build(source_id or f"{style}-{seed}")
    return document_to_xml(doc), gt
