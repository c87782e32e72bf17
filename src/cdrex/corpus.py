"""PubTator corpus ingestion and relation-instance construction.

A corpus file is a sequence of blank-line-separated blocks:

    PMID|t|title
    PMID|a|abstract
    PMID<TAB>start<TAB>end<TAB>text<TAB>type<TAB>meshid      (mention)
    PMID<TAB>CID<TAB>chemical_id<TAB>disease_id              (relation)

Character offsets index into title + " " + abstract.  Relation annotations
bind concept identifiers at the document level; `build_instances` transfers
them to mention level by pairing every chemical mention with every disease
mention and labelling the pair positive when its identifier pair is
annotated for the document.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass, field, replace

log = logging.getLogger(__name__)

CHEMICAL = "Chemical"
DISEASE = "Disease"

DEFAULT_MAX_TOKENS = 400

_PUNCT = set(".,;:()[]{}\"'!?/")

# Tokens whose trailing period does not end a sentence.
_ABBREVIATIONS = {"e.g", "i.e"}


class ParseError(ValueError):
    """Malformed corpus input; message carries the offending line number."""


@dataclass
class Mention:
    start: int
    end: int
    text: str
    kind: str      # Chemical | Disease
    mesh_id: str


@dataclass
class Document:
    pmid: str
    title: str
    abstract: str
    mentions: list[Mention] = field(default_factory=list)
    gold_cid: set[tuple[str, str]] = field(default_factory=set)

    @property
    def text(self) -> str:
        return self.title + " " + self.abstract


@dataclass
class Token:
    text: str
    start: int
    end: int


@dataclass
class RelationInstance:
    """One mention-level classification unit: a token window with the two
    entity positions marked (last token of each mention)."""

    uid: str
    pmid: str
    tokens: list[str]
    i1: int        # chemical entity token
    i2: int        # disease entity token
    chem_id: str
    dis_id: str
    label: int     # 1 iff (chem_id, dis_id) is a gold document-level pair


# ---------------------------------------------------------------------------
# Parsing


def _split_blocks(lines):
    block: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line.strip():
            block.append((lineno, line))
        elif block:
            yield block
            block = []
    if block:
        yield block


def parse_pubtator(stream) -> list[Document]:
    """Parse a PubTator stream (file object, string, or iterable of lines).

    Mention text is cross-checked against its offsets; mismatches are
    logged with their line number but do not abort.  Composite identifiers
    ("A|B") yield one mention per identifier, and mentions with the
    unannotatable identifier "-1" are dropped with a warning.
    """
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream
    docs = []
    for block in _split_blocks(lines):
        docs.append(_parse_block(block))
    return docs


def _parse_title_line(lineno: int, line: str, tag: str):
    parts = line.split("|", 2)
    if len(parts) != 3 or parts[1] != tag:
        raise ParseError(f"line {lineno}: expected PMID|{tag}|text, got {line[:60]!r}")
    return parts[0], parts[2]


def _parse_block(block) -> Document:
    if len(block) < 2:
        raise ParseError(f"line {block[0][0]}: block needs title and abstract lines")
    (ln_t, line_t), (ln_a, line_a) = block[0], block[1]
    pmid, title = _parse_title_line(ln_t, line_t, "t")
    pmid_a, abstract = _parse_title_line(ln_a, line_a, "a")
    if pmid_a != pmid:
        raise ParseError(f"line {ln_a}: PMID {pmid_a} does not match block PMID {pmid}")
    doc = Document(pmid, title, abstract)
    text = doc.text

    for lineno, line in block[2:]:
        fields = line.split("\t")
        if fields[0] != pmid:
            raise ParseError(f"line {lineno}: PMID {fields[0]} does not match block PMID {pmid}")
        if len(fields) == 4:
            _, marker, chem, dis = fields
            if marker != "CID":
                raise ParseError(f"line {lineno}: field 2: expected relation marker CID, got {marker!r}")
            doc.gold_cid.add((chem, dis))
        elif len(fields) == 6:
            _, start_s, end_s, mtext, kind, mesh = fields
            try:
                start, end = int(start_s), int(end_s)
            except ValueError:
                raise ParseError(f"line {lineno}: fields 2-3: offsets must be integers") from None
            if end <= start:
                raise ParseError(f"line {lineno}: field 3: end offset {end} <= start {start}")
            if text[start:end] != mtext:
                log.warning("line %d: mention text %r != text at offsets [%d:%d] (%r)",
                            lineno, mtext, start, end, text[start:end])
            for mesh_id in mesh.split("|"):
                if mesh_id == "-1":
                    log.warning("line %d: dropping mention %r with unannotatable id -1",
                                lineno, mtext)
                    continue
                doc.mentions.append(Mention(start, end, mtext, kind, mesh_id))
        else:
            raise ParseError(f"line {lineno}: expected 4 fields (relation) or 6 (mention), "
                             f"got {len(fields)}")

    mention_ids = {m.mesh_id for m in doc.mentions}
    for chem, dis in doc.gold_cid:
        if chem not in mention_ids or dis not in mention_ids:
            log.warning("document %s: gold pair (%s, %s) references ids missing from mentions",
                        doc.pmid, chem, dis)
    return doc


# ---------------------------------------------------------------------------
# Tokenization and sentence splitting


def tokenize(text: str) -> list[Token]:
    """Whitespace split, then detach leading/trailing punctuation as
    separate tokens.  Digits and internal hyphens stay intact."""
    tokens: list[Token] = []
    pos = 0
    for chunk in text.split():
        start = text.index(chunk, pos)
        pos = start + len(chunk)
        lo, hi = start, start + len(chunk)
        leading = []
        while lo < hi and text[lo] in _PUNCT:
            leading.append(Token(text[lo], lo, lo + 1))
            lo += 1
        trailing = []
        while hi > lo and text[hi - 1] in _PUNCT:
            trailing.append(Token(text[hi - 1], hi - 1, hi))
            hi -= 1
        tokens.extend(leading)
        if hi > lo:
            tokens.append(Token(text[lo:hi], lo, hi))
        tokens.extend(trailing[::-1])
    return tokens


def _is_abbreviation_before(text: str, period: int) -> bool:
    # Word immediately preceding text[period] == ".", without its period.
    j = period
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    word = text[j:period]
    if len(word) == 1 and word.isalpha():
        return True
    return word.lower() in _ABBREVIATIONS


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Approximate sentence spans: boundaries at ". " except after
    single-letter tokens and e.g./i.e. abbreviations."""
    spans = []
    start = 0
    i = 0
    while i < len(text) - 1:
        if text[i] == "." and text[i + 1] == " " and not _is_abbreviation_before(text, i):
            spans.append((start, i + 1))
            start = i + 2
            i += 2
            continue
        i += 1
    if start < len(text):
        spans.append((start, len(text)))
    return spans or [(0, 0)]


# ---------------------------------------------------------------------------
# Instance construction


def _truncate_window(w_lo: int, w_hi: int, lo: int, hi: int, n_max: int) -> tuple[int, int]:
    """Shrink [w_lo, w_hi] to at most n_max tokens, symmetrically around
    the entity span [lo, hi], never dropping either entity."""
    if hi - lo + 1 > n_max:
        raise RuntimeError("entity span exceeds the window budget; cannot keep both mentions")
    budget = n_max - (hi - lo + 1)
    left_take = min(lo - w_lo, budget // 2)
    right_take = min(w_hi - hi, budget - left_take)
    left_take = min(lo - w_lo, budget - right_take)
    return lo - left_take, hi + right_take


def build_instances(doc: Document, n_max: int = DEFAULT_MAX_TOKENS) -> list[RelationInstance]:
    """One instance per (chemical mention, disease mention) pair.

    The token window runs from the start of the earlier mention's sentence
    to the end of the later mention's sentence, truncated symmetrically
    around the pair when it exceeds n_max tokens.  Entity positions are the
    last tokens of each mention.  A pair is skipped with a warning when
    both mentions end on the same token, or when their last tokens lie
    more than n_max tokens apart.

    Tokens and sentences are in text order and do not overlap, so every
    lookup is a binary search over their offsets, once per mention.
    """
    tokens = tokenize(doc.text)
    texts = [t.text for t in tokens]
    starts = [t.start for t in tokens]
    ends = [t.end for t in tokens]
    sentences = split_sentences(doc.text)
    sentence_starts = [lo for lo, _ in sentences]

    def sentence_of(offset: int) -> tuple[int, int]:
        # The sentence holding the offset; the last one for offsets
        # outside every sentence (the space between two, or past the text).
        i = bisect.bisect_right(sentence_starts, offset) - 1
        if i >= 0:
            lo, hi = sentences[i]
            if offset < max(hi, lo + 1):
                return lo, hi
        return sentences[-1]

    def locate(m: Mention) -> tuple[int | None, int, int]:
        # The last token that overlaps the mention (None if none does), the
        # first token of the sentence it starts in and the last token of
        # the sentence it ends in.
        entity = bisect.bisect_left(starts, m.end) - 1
        first = bisect.bisect_right(ends, sentence_of(m.start)[0])
        last = bisect.bisect_left(starts, sentence_of(max(m.end - 1, m.start))[1]) - 1
        return (entity if entity >= 0 and ends[entity] > m.start else None,
                first if first < len(tokens) else 0, last if last >= 0 else len(tokens) - 1)

    chems = [m for m in doc.mentions if m.kind == CHEMICAL]
    diseases = [m for m in doc.mentions if m.kind == DISEASE]
    disease_at = [locate(m) for m in diseases]
    instances = []
    seq = 0
    for chem in chems:
        ic, chem_lo, chem_hi = locate(chem)
        if ic is None:
            log.warning("document %s: chemical mention %r matches no token", doc.pmid, chem.text)
            continue
        for dis, (i_d, dis_lo, dis_hi) in zip(diseases, disease_at):
            if i_d is None:
                log.warning("document %s: disease mention %r matches no token", doc.pmid, dis.text)
                continue
            if ic == i_d:
                log.warning("document %s: mentions %r/%r share their last token; pair skipped",
                            doc.pmid, chem.text, dis.text)
                continue
            lo, hi = min(ic, i_d), max(ic, i_d)
            if hi - lo + 1 > n_max:
                log.warning("document %s: mentions %r/%r span %d tokens, more than n_max=%d; "
                            "pair skipped", doc.pmid, chem.text, dis.text, hi - lo + 1, n_max)
                continue
            # From the earlier mention's sentence to the later one's.
            w_lo, w_hi = (chem_lo, dis_hi) if chem.start <= dis.start else (dis_lo, chem_hi)
            w_lo, w_hi = min(w_lo, lo), max(w_hi, hi)
            if w_hi - w_lo + 1 > n_max:
                w_lo, w_hi = _truncate_window(w_lo, w_hi, lo, hi, n_max)
            i1, i2 = ic - w_lo, i_d - w_lo
            if not (0 <= i1 <= w_hi - w_lo and 0 <= i2 <= w_hi - w_lo):
                raise RuntimeError(f"document {doc.pmid}: window construction dropped a mention")
            instances.append(RelationInstance(
                uid=f"{doc.pmid}#{seq}",
                pmid=doc.pmid,
                tokens=texts[w_lo:w_hi + 1],
                i1=i1,
                i2=i2,
                chem_id=chem.mesh_id,
                dis_id=dis.mesh_id,
                label=1 if (chem.mesh_id, dis.mesh_id) in doc.gold_cid else 0,
            ))
            seq += 1
    return instances


def fit_instance(inst: RelationInstance, n: int) -> RelationInstance:
    """Shrink an instance to at most n tokens (same symmetric rule as
    construction-time truncation).  Instances that already fit are
    returned unchanged; dev/test windows can exceed the training length
    that fixed n."""
    if len(inst.tokens) <= n:
        return inst
    lo, hi = min(inst.i1, inst.i2), max(inst.i1, inst.i2)
    w_lo, w_hi = _truncate_window(0, len(inst.tokens) - 1, lo, hi, n)
    return replace(inst, tokens=inst.tokens[w_lo:w_hi + 1],
                   i1=inst.i1 - w_lo, i2=inst.i2 - w_lo)


# ---------------------------------------------------------------------------
# Vocabulary


@dataclass
class Vocab:
    words: list[str]            # lowercased, sorted; PAD/UNK live in the tables
    counts: dict[str, int]      # lowercased word -> training occurrences
    chars: list[str]            # characters seen in training tokens
    n: int                      # fixed sequence length


def build_vocab(train_docs: list[Document], train_instances: list[RelationInstance],
                n_max: int = DEFAULT_MAX_TOKENS) -> Vocab:
    """Word counts over the tokenized training documents and the padded
    sequence length n = min(longest training instance, n_max)."""
    if not train_docs:
        raise ValueError("cannot build a vocabulary from an empty training set")
    counts: dict[str, int] = {}
    chars: set[str] = set()
    for doc in train_docs:
        for tok in tokenize(doc.text):
            counts[tok.text.lower()] = counts.get(tok.text.lower(), 0) + 1
            chars.update(tok.text)
    if not train_instances:
        raise ValueError("cannot fix a sequence length without training instances")
    n = min(max(len(inst.tokens) for inst in train_instances), n_max)
    return Vocab(sorted(counts), counts, sorted(chars), n)


def longest_word_length(docs: list[Document]) -> int:
    """Data-sanity statistic over the tokenized corpus."""
    return max((len(t.text) for doc in docs for t in tokenize(doc.text)), default=0)
