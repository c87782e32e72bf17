"""Seeded generator of BC5CDR-shaped PubTator corpora.

The shape follows the published statistics of the BioCreative V CDR
corpus (Li et al., Database 2016): 500 abstracts per split, about ten
chemical and nine disease mentions per abstract over three or four
concepts of each kind, about 250 tokens per abstract, and about 15% of the
co-occurring (chemical, disease) concept pairs annotated as CID relations.
Filler words follow a Zipf-like law over a lexicon of six-letter
syllable words, so a 500-document split has about 10.8k distinct lowercased word types, the
size of the BC5CDR training vocabulary.

Everything derives from one integer seed: the same seed and shape give
the same text byte for byte.  Relations are a fixed property of the
concept pair (a seeded hash), so a pair that is a CID relation in one
document is one in every document where both concepts occur, as in the
real corpus.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_SYLLABLES = [c + v for c in "bcdfghklmnprstvz" for v in "aeiou"][:40]
_CHEM_SUFFIXES = ("ine", "ol", "ide", "amine", "azole", "mycin", "one", "ate")
_DIS_SUFFIXES = ("itis", "osis", "emia", "pathy", "algia", "oma")
_DIS_HEADS = ("failure", "injury", "syndrome", "disease", "toxicity")

# Concept pools: large enough that documents rarely share all concepts,
# small enough that popular concepts recur across a split.
CHEM_CONCEPTS = 1200
DIS_CONCEPTS = 900
LEXICON = 30_000
ZIPF_EXPONENT = 1.24
ZIPF_OFFSET = 2.7
CID_RATE = 0.15


@dataclass(frozen=True)
class Shape:
    """Size of one generated split."""

    docs: int
    title_tokens: int        # including the final period
    sentence_tokens: int     # mean abstract sentence length, period included
    abstract_tokens: int     # abstract length, exact
    chem_mentions: int       # per document
    dis_mentions: int
    chem_concepts: tuple[int, int]   # inclusive range per document
    dis_concepts: tuple[int, int]
    # Chemicals only in the title and diseases only in the abstract, so
    # every pair's window spans the whole two-sentence document.
    kinds_by_sentence: bool = False


# BC5CDR-sized abstracts: 12 + 238 = 250 tokens, windows up to n ~ 250.
# Mention counts are fixed, so every document yields 90 mention-pair
# instances and the cost of a split does not depend on the seed.
LONG = Shape(docs=500, title_tokens=12, sentence_tokens=22, abstract_tokens=238,
             chem_mentions=10, dis_mentions=9,
             chem_concepts=(3, 4), dis_concepts=(3, 4))

# Two ~15-token sentences (title and a one-sentence abstract), n = 31.
# Every window is the whole document, so the character encoders' work per
# instance does not depend on where a seed puts the mentions.
SHORT = Shape(docs=500, title_tokens=15, sentence_tokens=16, abstract_tokens=16,
              chem_mentions=2, dis_mentions=2,
              chem_concepts=(1, 2), dis_concepts=(1, 2), kinds_by_sentence=True)


def _word(rank: int) -> str:
    """Three base-40 syllables: every filler word has six letters, so the
    work of the character encoders does not depend on which words a seed
    draws."""
    n = len(_SYLLABLES)
    if not 0 <= rank < n ** 3:
        raise ValueError(f"rank {rank} outside the three-syllable lexicon")
    return "".join(_SYLLABLES[rank // n ** k % n] for k in range(3))


def _chem_name(i: int) -> str:
    return _word(1600 + 7 * i) + _CHEM_SUFFIXES[i % len(_CHEM_SUFFIXES)]


def _dis_name(i: int) -> list[str]:
    stem = _word(1601 + 5 * i) + _DIS_SUFFIXES[i % len(_DIS_SUFFIXES)]
    if i % 3 == 0:
        return [stem, _DIS_HEADS[(i // 3) % len(_DIS_HEADS)]]
    return [stem]


def is_relation(chem: int, dis: int, seed: int) -> bool:
    """Whether (chemical concept, disease concept) is a CID relation."""
    digest = hashlib.blake2b(f"{seed}:{chem}:{dis}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") < CID_RATE * 2.0**64


def _zipf_cdf(size: int, exponent: float, offset: float) -> np.ndarray:
    cdf = np.cumsum(1.0 / (np.arange(size) + offset) ** exponent)
    return cdf / cdf[-1]


def _draw(cdf: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """`size` ranks drawn from the distribution with cumulative `cdf`."""
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


def _draw_distinct(cdf: np.ndarray, count: int, rng: np.random.Generator) -> list[int]:
    out: list[int] = []
    while len(out) < count:
        rank = int(_draw(cdf, 1, rng)[0])
        if rank not in out:
            out.append(rank)
    return out


_LEXICON_CDF = _zipf_cdf(LEXICON, ZIPF_EXPONENT, ZIPF_OFFSET)
_CHEM_CDF = _zipf_cdf(CHEM_CONCEPTS, 0.8, 5.0)
_DIS_CDF = _zipf_cdf(DIS_CONCEPTS, 0.8, 5.0)


def _sentence_lengths(total: int, mean: int, rng: np.random.Generator) -> list[int]:
    """Split `total` tokens into sentences of roughly `mean` tokens."""
    count = max(1, round(total / mean))
    lengths = [total // count] * count
    for i in range(total - sum(lengths)):
        lengths[i] += 1
    for i in range(count - 1):
        shift = int(rng.integers(-4, 5))
        shift = max(-(lengths[i] - 6), min(shift, lengths[i + 1] - 6))
        lengths[i] -= shift
        lengths[i + 1] += shift
    return lengths


def _document(pmid: str, shape: Shape, rng: np.random.Generator, seed: int) -> str:
    """One PubTator block of the given shape."""
    n_chem_c = int(rng.integers(shape.chem_concepts[0], shape.chem_concepts[1] + 1))
    n_dis_c = int(rng.integers(shape.dis_concepts[0], shape.dis_concepts[1] + 1))
    chems = _draw_distinct(_CHEM_CDF, n_chem_c, rng)
    diss = _draw_distinct(_DIS_CDF, n_dis_c, rng)
    n_chem, n_dis = shape.chem_mentions, shape.dis_mentions
    # Every concept is mentioned at least once; the rest repeat at random.
    mentions = ([("Chemical", c) for c in chems]
                + [("Chemical", chems[int(i)]) for i in rng.integers(0, n_chem_c, n_chem - n_chem_c)]
                + [("Disease", d) for d in diss]
                + [("Disease", diss[int(i)]) for i in rng.integers(0, n_dis_c, n_dis - n_dis_c)])

    # Token slots: sentences of filler words, each ending in a period.
    sentences = [shape.title_tokens] + _sentence_lengths(shape.abstract_tokens,
                                                         shape.sentence_tokens, rng)
    slots = []  # (sentence, position) of every word slot (not the period)
    for s, length in enumerate(sentences):
        slots.extend((s, p) for p in range(length - 1))
    # Mentions take distinct slots, two apart so a two-token name fits.
    free = [i for i, (s, p) in enumerate(slots) if p % 2 == 0 and p + 1 < sentences[s] - 1]
    if shape.kinds_by_sentence:
        groups = [([i for i in free if slots[i][0] == 0], [m for m in mentions if m[0] == "Chemical"]),
                  ([i for i in free if slots[i][0] > 0], [m for m in mentions if m[0] == "Disease"])]
    else:
        groups = [(free, mentions)]
    placed = {}
    for group_slots, group in groups:
        chosen = sorted(int(i) for i in rng.choice(len(group_slots), size=len(group), replace=False))
        order = rng.permutation(len(group))
        placed.update({group_slots[c]: group[int(o)] for c, o in zip(chosen, order)})

    fillers = _draw(_LEXICON_CDF, len(slots), rng)
    words: list[list[str | tuple]] = [[] for _ in sentences]
    skip = False
    for i, (s, p) in enumerate(slots):
        if skip:
            skip = False
            continue
        if i in placed:
            kind, concept = placed[i]
            name = [_chem_name(concept)] if kind == "Chemical" else _dis_name(concept)
            words[s].append((kind, concept, name))
            skip = len(name) == 2  # the name's second token fills the next slot
        else:
            words[s].append(_word(int(fillers[i])))

    text_parts: list[str] = []
    annotations: list[str] = []
    offset = 0
    for sentence in words:
        pieces = []
        for j, item in enumerate(sentence):
            if isinstance(item, tuple):
                kind, concept, name = item
                surface = " ".join(name)
                start = offset + sum(len(x) + 1 for x in pieces)
                mesh = f"C{concept:06d}" if kind == "Chemical" else f"D{concept:06d}"
                annotations.append(f"{pmid}\t{start}\t{start + len(surface)}\t{surface}\t{kind}\t{mesh}")
                pieces.append(surface)
            else:
                pieces.append(item.capitalize() if j == 0 else item)
        sentence_text = " ".join(pieces) + "."
        text_parts.append(sentence_text)
        offset += len(sentence_text) + 1
    title, abstract = text_parts[0], " ".join(text_parts[1:])

    lines = [f"{pmid}|t|{title}", f"{pmid}|a|{abstract}"] + annotations
    for c in sorted(chems):
        for d in sorted(diss):
            if is_relation(c, d, seed):
                lines.append(f"{pmid}\tCID\tC{c:06d}\tD{d:06d}")
    return "\n".join(lines)


def generate(shape: Shape, seed: int, split: str = "train", docs: int | None = None) -> str:
    """PubTator text of one split.  `split` names an independent stream,
    so train, dev and test splits of one seed share concepts and relations
    but no documents."""
    split_index = {"train": 0, "dev": 1, "test": 2}[split]
    rng = np.random.default_rng([seed, split_index])
    count = shape.docs if docs is None else docs
    base = 10_000_000 + 1_000_000 * split_index
    blocks = [_document(str(base + i), shape, rng, seed) for i in range(count)]
    return "\n\n".join(blocks) + "\n"
