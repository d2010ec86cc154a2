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
    """Greedy line-filling layout over single or double column pages."""

    def __init__(self, two_col: bool):
        self.two_col = two_col
        self.pages: list[list[Line]] = [[]]
        self.col = 0
        self.y = MARGIN
        self.footnotes: dict[int, list[list[_Word]]] = {}

    @property
    def page_index(self) -> int:
        return len(self.pages) - 1

    def _col_x(self) -> float:
        if not self.two_col:
            return MARGIN
        return MARGIN if self.col == 0 else MARGIN + COL_W + COL_GAP

    def _col_width(self) -> float:
        return COL_W if self.two_col else PAGE_W - 2 * MARGIN

    def _advance_region(self):
        if self.two_col and self.col == 0:
            self.col = 1
        else:
            self.pages.append([])
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
        self.pages[self.page_index].append(_line(
            words, self._col_x() + indent, self.y, self.page_index + 1))

    def flow(self, words: list[_Word], indent_continuation: float = 0.0,
             no_digit_line_start: bool = False):
        """Wrap words into lines within the current column."""
        limit = self._col_width()
        line: list[_Word] = []
        used = 0.0
        first = True
        for w in words:
            w_width = _width(w)
            indent = 0.0 if first else indent_continuation
            if line and used + w_width > limit - indent:
                if no_digit_line_start and w.text[0].isdigit() and len(line) > 1:
                    # keep the previous word with the number so a wrapped
                    # line never begins with a digit (reference splitting)
                    carry = line.pop()
                    self._emit_line(line, indent)
                    first = False
                    line = [carry]
                    used = _width(carry) + carry.gap_after
                else:
                    self._emit_line(line, indent)
                    first = False
                    line = []
                    used = 0.0
            line.append(w)
            used += w_width + w.gap_after
        if line:
            self._emit_line(line, 0.0 if first else indent_continuation)

    def add_footnote(self, words: list[_Word]):
        self.footnotes.setdefault(self.page_index, []).append(words)

    def build(self, source_id: str) -> Document:
        pages = []
        for i, lines in enumerate(self.pages):
            lines = list(lines)
            for k, fn_words in enumerate(self.footnotes.get(i, [])):
                # wide spacing keeps consecutive notes in separate chunks
                lines.append(_line(fn_words, MARGIN,
                                   PAGE_H - 64.0 + 24.0 * k, i + 1))
            lines.sort(key=lambda l: l.baseline_y)
            pages.append(Page(number=i + 1, width=PAGE_W, height=PAGE_H,
                              lines=tuple(lines)))
        return Document(source_id=source_id, pages=tuple(pages))


def _words(texts, **kw) -> list[_Word]:
    return [_Word(text=t, **kw) for t in texts]


def _sentence(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(BODY_WORDS) for _ in range(n)]


def _render_citation(style_id: int, surname: str, surname2: str, year: int,
                     index: int):
    """(rendered text, expected extractor match) for one citation style row."""
    text = CITATION_FORMATS[style_id].format(
        surname=surname, surname2=surname2, year=year, index=index)
    return text, text[1:-1] if style_id == 13 else text


def generate_synthetic_document(style: str, seed: int,
                                source_id: str = "") -> tuple[bytes, GroundTruth]:
    """One rich-XML article and its exact ground truth, deterministic in seed."""
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}")
    rng = random.Random((STYLES.index(style) + 1) * 1_000_003 + seed)
    two_col = style.startswith("two-col")
    indexed = style in ("single-col-numbered", "two-col-indexed")
    gt = GroundTruth()
    writer = _Writer(two_col=two_col)
    if not source_id:
        source_id = f"{style}-{seed}"

    # --- references (prepared first so citations can point at them) ---
    n_refs = rng.randint(5, 9)
    surnames = rng.sample(REF_SURNAMES, n_refs)
    ref_entries = []
    for i, surname in enumerate(surnames):
        year = rng.randint(1995, 2020)
        first = rng.choice(FIRST_NAMES)
        title_words = " ".join(_sentence(rng, rng.randint(4, 7)))
        ref_entries.append((i + 1, surname, year,
                            f"{surname}, {first}. {year}. {title_words}."))
    gt.references = [entry for _, _, _, entry in ref_entries]

    # --- title ---
    title = " ".join(rng.sample(TITLE_WORDS, rng.randint(4, 7)))
    gt.title = title
    writer.flow(_words(title.split(), font=17.0, bold=True))

    # --- authors ---
    n_authors = rng.randint(2, 4)
    firsts = rng.sample(FIRST_NAMES, n_authors)
    lasts = rng.sample(LAST_NAMES, n_authors)
    authors = []
    for first, last in zip(firsts, lasts):
        middle = rng.choice(FIRST_NAMES) if rng.random() < 0.25 else ""
        while middle in (first, last) or middle in firsts:
            middle = rng.choice(FIRST_NAMES)
        authors.append((first, middle, last))
    gt.authors = list(authors)
    writer.vspace(4)
    author_words: list[_Word] = []
    for first, middle, last in authors:
        parts = [first] + ([middle] if middle else []) + [last]
        for j, part in enumerate(parts):
            gap = SPACE_W if j < len(parts) - 1 else 30.0
            author_words.append(_Word(text=part, font=11.0, bold=True,
                                      gap_after=gap))
    writer.flow(author_words)

    # --- affiliation ---
    dept, inst = rng.choice(AFFILIATION_TEMPLATES)
    writer.vspace(4)
    writer.flow(_words(dept.split(), font=10.0, italic=True))
    writer.flow(_words(inst.split(), font=10.0, italic=True))
    gt.affiliations = [dept, inst]

    # --- e-mails (one of the four group patterns) ---
    pattern = rng.randint(1, 4)
    users = [f.lower() for f, _, _ in authors]
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
    for (first, middle, last), email in zip(authors, gt.emails):
        full = " ".join(p for p in (first, middle, last) if p)
        gt.author_email.append((full, email))
    writer.vspace(4)
    writer.flow(_words(rendered.split(), font=8.0))

    # --- abstract ---
    writer.vspace(14)
    writer.flow(_words(["Abstract"], font=12.0, bold=True))
    gt.section_headings.append("Abstract")
    writer.vspace(2)
    writer.flow(_words(_sentence(rng, rng.randint(30, 45))))

    # --- sections with citations, URLs, captions, footnotes ---
    n_sections = rng.randint(4, 7)
    datasets = SECTION_POOL.index(("Datasets", "Datasets"))
    chosen = sorted(rng.sample(range(len(SECTION_POOL)), n_sections))
    if rng.random() < 0.8 and datasets not in chosen:
        chosen = sorted(set(chosen) | {datasets})
    sections = [SECTION_POOL[i] for i in chosen]

    cite_styles = INDEXED_CITE_STYLES if indexed else AUTHOR_YEAR_CITE_STYLES
    fig_no, tab_no = 1, 1
    url_no = 0
    for s_i, (name, _generic) in enumerate(sections):
        heading = f"{s_i + 1} {name}" if indexed else name
        writer.vspace(14)
        writer.flow(_words(heading.split(), font=12.0, bold=True))
        gt.section_headings.append(heading)
        writer.vspace(2)
        n_paras = rng.randint(2, 4)
        for _ in range(n_paras):
            words = _sentence(rng, rng.randint(35, 55))
            insertions: list[tuple[int, list[str]]] = []
            slots = list(range(2, max(3, len(words) - 8)))
            rng.shuffle(slots)
            for _ in range(rng.randint(0, 2)):
                if not slots:
                    break
                style_id = rng.choice(cite_styles)
                ref_i, surname, year, _entry = rng.choice(ref_entries)
                ref2 = rng.choice([r for r in ref_entries if r[0] != ref_i])
                rendered_cite, match = _render_citation(
                    style_id, surname, ref2[1], year, ref_i)
                ordinals = [ref_i]
                if style_id == 16 and rng.random() < 0.5:
                    ref_j = ref2[0]
                    rendered_cite = f"[{ref_i}, {ref_j}]"
                    match = rendered_cite
                    ordinals = [ref_i, ref_j]
                gt.citations.append(match)
                for o in ordinals:
                    gt.cite_ref.append((match, str(o)))
                insertions.append((slots.pop(), rendered_cite.split()))
            if rng.random() < 0.25 and slots:
                host = rng.choice(URL_HOSTS)
                if name == "Datasets":
                    path = rng.choice(DATASET_URL_PATHS)
                else:
                    path = rng.choice(PLAIN_URL_PATHS)
                url = f"http://{host}/{path}{url_no}"
                url_no += 1
                gt.urls.append(url)
                insertions.append((slots.pop(), ["see", url, "for", "details"]))
            for pos, extra in sorted(insertions, reverse=True):
                words[pos:pos] = extra
            writer.flow(_words(words))
            writer.vspace(13)
        if rng.random() < 0.4:
            writer.vspace(13)
            caption = " ".join(_sentence(rng, rng.randint(5, 8)))
            if rng.random() < 0.5:
                text = f"Figure {fig_no}: {caption}."
                gt.figure_headings.append(text)
                writer.flow(_words(text.split(), font=9.0, bold=True))
                fig_no += 1
            else:
                cap = f"Table {tab_no}: {caption}."
                cells = _sentence(rng, 4)
                gt.table_headings.append(cap)
                row = _words(cap.split(), font=9.0, bold=True)
                row += _words(cells, font=9.0)
                writer.flow(row)
                tab_no += 1
            writer.vspace(13)
        near_datasets = name == "Datasets" or (
            s_i + 1 < len(sections) and sections[s_i + 1][0] == "Datasets")
        if rng.random() < 0.3 and not near_datasets:
            marker = str(len(gt.footnotes) + 1)
            note_words = _sentence(rng, rng.randint(5, 8))
            if rng.random() < 0.6:
                url = f"http://{rng.choice(URL_HOSTS)}/{rng.choice(PLAIN_URL_PATHS)}{url_no}"
                url_no += 1
                gt.urls.append(url)
                note_words.append(url)
            gt.footnotes.append(" ".join(note_words))
            fn = [_Word(text=marker, font=6.0, raised=True, gap_after=2.0)]
            fn += _words(note_words, font=8.0)
            writer.add_footnote(fn)

    # --- reference section ---
    ref_heading = (f"{len(sections) + 1} References"
                   if indexed else "References")
    writer.vspace(14)
    writer.flow(_words(ref_heading.split(), font=12.0, bold=True))
    gt.section_headings.append(ref_heading)
    writer.vspace(2)
    hanging = style == "single-col-unnumbered"
    for i, _surname, _year, entry in ref_entries:
        if indexed:
            text = f"[{i}] {entry}"
            writer.flow(_words(text.split()), no_digit_line_start=True)
        elif hanging:
            writer.flow(_words(entry.split()), indent_continuation=12.0,
                        no_digit_line_start=True)
        else:
            text = f"{i}. {entry}"
            writer.flow(_words(text.split()), no_digit_line_start=True)

    doc = writer.build(source_id)
    return document_to_xml(doc), gt
