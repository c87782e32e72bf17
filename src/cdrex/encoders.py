"""Per-token input vectors: word, position and character-level embeddings.

Each token i of a relation mention is encoded as the concatenation

    word(d1=200) . pos1(d2=50) . pos2(d2=50) . char(d3=50)

where the two position components are indexed by the signed distances to
the entity tokens, and the character component comes from either a small
convolutional encoder or a bidirectional LSTM over the token's characters.
`encode_chars` is the one character-encoding entry point for both: it
encodes a tuple of distinct forms, a minibatch's in training and a whole
split's at inference (`char_rows`).

Word-embedding lookup is lowercased; character input keeps its case, so
capitalization signal survives in the character features.  Padding rows
use the literal "PAD" word token, whose characters are fed to the
character encoder like any other word's.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng
from . import tensor as T
from .tensor import Tensor

log = logging.getLogger(__name__)

WORD_DIM = 200
POS_DIM = 50
CHAR_DIM = 25
CHAR_OUT_DIM = 50
CHAR_CNN_WINDOW = 5
CHAR_CNN_FILTERS = 50
LSTM_UNITS = 25

PAD_WORD = "PAD"
UNK_WORD = "UNK"
PAD_CHAR = "PADCHAR"
UNK_CHAR = "UNKCHAR"

INIT_RANGE = 0.05


@dataclass
class EmbeddingTable:
    """A learnable lookup table with reserved fallback rows."""

    name: str
    dim: int
    weights: Tensor                 # rows x dim
    index: dict = field(repr=False)  # word / char / relative-distance -> row

    @property
    def rows(self) -> int:
        return self.weights.shape[0]


def word_table(vocab: list[str], rng: Rng, dim: int = WORD_DIM,
               pretrained: dict[str, np.ndarray] | None = None) -> EmbeddingTable:
    """Word table over a lowercased vocabulary, rows PAD, UNK, then the
    words in sorted order.  Rows found in `pretrained` are copied in;
    everything else stays randomly initialized."""
    words = sorted(set(vocab))
    index = {PAD_WORD: 0, UNK_WORD: 1}
    for w in words:
        index[w] = len(index)
    data = rng.fill_uniform((len(index), dim), -INIT_RANGE, INIT_RANGE)
    if pretrained:
        found = 0
        for w, i in index.items():
            vec = pretrained.get(w)
            if vec is not None:
                if vec.shape != (dim,):
                    raise ValueError(f"pretrained vector for {w!r} has dim {vec.shape}, table needs ({dim},)")
                data[i] = vec
                found += 1
        log.info("word table: %d/%d rows from pre-trained vectors", found, len(index))
    return EmbeddingTable("word", dim, Tensor(data, requires_grad=True), index)


def char_table(chars, rng: Rng, dim: int = CHAR_DIM) -> EmbeddingTable:
    index = {PAD_CHAR: 0, UNK_CHAR: 1}
    for c in sorted(set(chars)):
        index[c] = len(index)
    data = rng.fill_uniform((len(index), dim), -INIT_RANGE, INIT_RANGE)
    return EmbeddingTable("char", dim, Tensor(data, requires_grad=True), index)


def position_table(name: str, n: int, rng: Rng, dim: int = POS_DIM) -> EmbeddingTable:
    """Rows for every signed distance -(n-1) .. (n-1)."""
    if n < 1:
        raise ValueError("position_table: n must be >= 1")
    index = {rel: rel + n - 1 for rel in range(-(n - 1), n)}
    data = rng.fill_uniform((2 * n - 1, dim), -INIT_RANGE, INIT_RANGE)
    return EmbeddingTable(name, dim, Tensor(data, requires_grad=True), index)


class WordRows(dict):
    """Word-table row of each form, looked up on the form's first use:
    reserved tokens hit their own rows directly; everything else is
    lowercased first, falling back to UNK."""

    def __init__(self, index: dict):
        super().__init__()
        self.index = index

    def __missing__(self, token: str) -> int:
        if token in (PAD_WORD, UNK_WORD):
            row = self.index[token]
        else:
            row = self.index.get(token.lower(), self.index[UNK_WORD])
        self[token] = row
        return row


@dataclass
class EmbeddingSet:
    """The embedding tables of one model plus its fixed sequence length.
    `word_rows` memoizes the word table's lookup, so the word table's
    index must not change after construction."""

    word: EmbeddingTable
    pos1: EmbeddingTable
    pos2: EmbeddingTable
    char: EmbeddingTable | None
    n: int
    word_rows: WordRows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.pos1.rows != 2 * self.n - 1 or self.pos2.rows != 2 * self.n - 1:
            raise ValueError("position tables must have 2n-1 rows")
        self.word_rows = WordRows(self.word.index)


# ---------------------------------------------------------------------------
# Character-level encoders


@dataclass
class LstmParams:
    """One LSTM direction.  Gates are packed [input, forget, output,
    candidate] along the last axis of every matrix."""

    wx: Tensor  # (input_dim, 4*units)
    wh: Tensor  # (units, 4*units)
    b: Tensor   # (4*units,)

    @property
    def units(self) -> int:
        return self.wh.shape[0]


@dataclass
class CharEncoderParams:
    """Parameters of one character encoder variant, output width d3."""

    variant: str  # "cnn" | "bilstm"
    filters: Tensor | None = None   # cnn: (num_filters, window, char_dim)
    bias: Tensor | None = None      # cnn: (num_filters,)
    fwd: LstmParams | None = None   # bilstm
    bwd: LstmParams | None = None

    @property
    def out_dim(self) -> int:
        if self.variant == "cnn":
            return self.filters.shape[0]
        return 2 * self.fwd.units

    def weight_matrices(self) -> list[Tensor]:
        if self.variant == "cnn":
            return [self.filters]
        return [self.fwd.wx, self.fwd.wh, self.bwd.wx, self.bwd.wh]

    def all_tensors(self) -> list[tuple[str, Tensor]]:
        if self.variant == "cnn":
            return [("char_cnn.filters", self.filters), ("char_cnn.bias", self.bias)]
        out = []
        for tag, p in (("fwd", self.fwd), ("bwd", self.bwd)):
            out += [(f"char_lstm.{tag}.wx", p.wx), (f"char_lstm.{tag}.wh", p.wh),
                    (f"char_lstm.{tag}.b", p.b)]
        return out


def char_cnn_params(rng: Rng, char_dim: int = CHAR_DIM, num_filters: int = CHAR_CNN_FILTERS,
                    window: int = CHAR_CNN_WINDOW) -> CharEncoderParams:
    filters = Tensor(rng.fill_uniform((num_filters, window, char_dim), -INIT_RANGE, INIT_RANGE),
                     requires_grad=True)
    bias = Tensor(np.zeros(num_filters), requires_grad=True)
    return CharEncoderParams("cnn", filters=filters, bias=bias)


def _lstm_params(rng: Rng, input_dim: int, units: int) -> LstmParams:
    wx = Tensor(rng.fill_uniform((input_dim, 4 * units), -INIT_RANGE, INIT_RANGE), requires_grad=True)
    wh = Tensor(rng.fill_uniform((units, 4 * units), -INIT_RANGE, INIT_RANGE), requires_grad=True)
    b = np.zeros(4 * units)
    b[units:2 * units] = 1.0  # forget gate bias starts open
    return LstmParams(wx, wh, Tensor(b, requires_grad=True))


def char_bilstm_params(rng: Rng, char_dim: int = CHAR_DIM, units: int = LSTM_UNITS) -> CharEncoderParams:
    return CharEncoderParams("bilstm",
                             fwd=_lstm_params(rng.derive("lstm-fwd"), char_dim, units),
                             bwd=_lstm_params(rng.derive("lstm-bwd"), char_dim, units))


def _char_ids(word: str, table: EmbeddingTable, min_len: int = 1) -> list[int]:
    if not word:
        raise ValueError("cannot encode an empty word")
    unk = table.index[UNK_CHAR]
    ids = [table.index.get(c, unk) for c in word]
    if len(ids) < min_len:
        ids += [table.index[PAD_CHAR]] * (min_len - len(ids))
    return ids


def char_cnn_encode(word: str, chartable: EmbeddingTable, params: CharEncoderParams) -> Tensor:
    """The (d3,) encoding of one word by either encoder; see `encode_chars`."""
    return T.row(encode_chars((word,), chartable, params), 0)


char_bilstm_encode = char_cnn_encode


def encode_chars(forms: tuple[str, ...], chartable: EmbeddingTable,
                 params: CharEncoderParams) -> Tensor:
    """(F, d3) encodings, row f for forms[f]: every form's characters
    (right-padded with PADCHAR to the char-CNN's window) in one gather,
    then one `conv_relu_max` node over all the forms for the CNN, or one
    `lstm_final_states` node per direction for the BiLSTM, the final
    forward and reverse states.  A row's bits do not depend on the other
    forms."""
    window = params.filters.shape[1] if params.variant == "cnn" else 1
    ids = [_char_ids(word, chartable, window) for word in forms]
    mat = T.gather(chartable.weights, [i for word_ids in ids for i in word_ids])
    lengths = [len(word_ids) for word_ids in ids]
    if params.variant == "cnn":
        return T.conv_relu_max(mat, lengths, params.filters, params.bias)
    if params.variant == "bilstm":
        return T.concat([T.lstm_final_states(mat, lengths, p.wx, p.wh, p.b, reverse)
                         for p, reverse in ((params.fwd, False), (params.bwd, True))])
    raise ValueError(f"unknown character encoder variant {params.variant!r}")


# ---------------------------------------------------------------------------
# Input matrix construction


def _padded(tokens, n: int) -> list[str]:
    return list(tokens) + [PAD_WORD] * (n - len(tokens))


def char_rows(instances, tables: EmbeddingSet,
              params: CharEncoderParams) -> tuple[Tensor, dict[str, int]]:
    """One `encode_chars` call over the distinct forms of the instances
    padded to n rows, in order of first use, and each form's row."""
    forms = tuple(dict.fromkeys(tok for inst in instances for tok in _padded(inst.tokens, tables.n)))
    return encode_chars(forms, tables.char, params), {tok: j for j, tok in enumerate(forms)}


def padded_tokens(instance, n: int,
                  word_tokens: list[str] | None = None) -> tuple[list[str], list[str]]:
    """The instance's tokens and its word-lookup tokens (`word_tokens`, by
    default the same), each padded with PAD to n rows; ValueError when the
    instance has no tokens or more than n, an entity index is out of
    range, or the lookup tokens do not align."""
    real = list(instance.tokens)
    if not 0 < len(real) <= n:
        raise ValueError(f"instance has {len(real)} tokens, expected 1..{n}")
    i1, i2 = instance.i1, instance.i2
    if not (0 <= i1 < len(real) and 0 <= i2 < len(real)):
        raise ValueError(f"entity indices ({i1}, {i2}) out of range for {len(real)} tokens")
    lookup = list(word_tokens) if word_tokens is not None else real
    if len(lookup) != len(real):
        raise ValueError("word-lookup tokens must align with the instance tokens")
    return _padded(real, n), _padded(lookup, n)


def build_input_matrix(instance, tables: EmbeddingSet,
                       char_params: CharEncoderParams | None = None,
                       word_tokens: list[str] | None = None,
                       chars: tuple[Tensor, dict[str, int]] | None = None) -> Tensor:
    """The n x d model input for one relation instance.

    Rows beyond the real tokens use the PAD word token (its characters are
    the literal string "PAD") with positions computed from the padded row
    index as usual.  `word_tokens`, when given, replaces the word-lookup
    path only (UNK replacement); the character encoder always sees the
    original tokens.

    `chars` (from `char_rows`, valid while the parameters are unchanged)
    are encodings shared by many instances; without it the instance's own
    distinct forms are encoded, each once, for all the rows that use it.
    """
    n = tables.n
    real, lookup = padded_tokens(instance, n, word_tokens)
    i1, i2 = instance.i1, instance.i2
    parts = [T.gather(tables.word.weights, [tables.word_rows[tok] for tok in lookup]),
             T.gather(tables.pos1.weights, [tables.pos1.index[i - i1] for i in range(n)]),
             T.gather(tables.pos2.weights, [tables.pos2.index[i - i2] for i in range(n)])]
    if char_params is not None:
        if tables.char is None:
            raise ValueError("character encoder given but no character table")
        encoded, slot = chars or char_rows([instance], tables, char_params)
        parts.append(T.gather(encoded, [slot[tok] for tok in real]))

    out = T.concat(parts)
    expected = tables.word.dim + tables.pos1.dim + tables.pos2.dim + (
        char_params.out_dim if char_params is not None else 0)
    if out.shape != (n, expected):
        raise AssertionError(f"input matrix shape {out.shape} != ({n}, {expected})")
    return out


def unk_replace(tokens: list[str], counts: dict[str, int], rng: Rng) -> list[str]:
    """Independently replace each token by UNK for the word-lookup path,
    with probability 0.25 / (0.25 + n_w) given its training count n_w.
    Character-level input is never touched (callers keep the originals)."""
    n_w = np.array([counts.get(tok.lower(), 0) for tok in tokens], dtype=np.float64)
    # `fill_uniform` gives the values of one `rng.random()` per token.
    drop = rng.fill_uniform((len(tokens),), 0.0, 1.0) < 0.25 / (0.25 + n_w)
    return [UNK_WORD if d else tok for tok, d in zip(tokens, drop)]


class VectorFormatError(ValueError):
    """Malformed pre-trained vector file; the message names file and line."""


def load_word_vectors(path, dim: int | None = None,
                      vocab: set[str] | None = None) -> dict[str, np.ndarray]:
    """Read pre-trained vectors: one `word v1 .. vD` entry per line, with
    an optional `ROWS DIM` header auto-detected on the first line.  Every
    entry must have `dim` values (by default, as many as the first entry).
    When `vocab` is given only those (lowercased) words are kept."""
    vectors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                parts = raw.decode("utf-8").split()
            except UnicodeDecodeError:
                raise VectorFormatError(f"{path}: line {lineno}: not UTF-8 text") from None
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(p.isdigit() for p in parts):
                continue  # header
            word, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            if len(values) != dim:
                raise VectorFormatError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(values)}")
            key = word.lower()
            if vocab is not None and key not in vocab:
                continue
            try:
                vectors[key] = np.array([float(v) for v in values])
            except ValueError as exc:
                raise VectorFormatError(
                    f"{path}: line {lineno}: non-numeric component ({exc})") from None
    return vectors
