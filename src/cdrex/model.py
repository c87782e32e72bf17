"""The relation classifier: convolution over the encoded token matrix,
max-over-time pooling, dropout, and a fully connected softmax output.

Three variants share the pipeline and differ only in the character
component of the input rows, from `encoders.encode_chars`:

    cnn           word + positions only
    cnn+cnnchar   adds the convolutional character encoder
    cnn+lstmchar  adds the bidirectional LSTM character encoder

Class order is fixed as [no-relation, CID] so label 1 is always the
positive class, in memory and on disk.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import encoders
from . import tensor as T
from .encoders import CharEncoderParams, EmbeddingSet, EmbeddingTable, LstmParams
from .rng import Rng
from .tensor import Tensor

log = logging.getLogger(__name__)

VARIANTS = ("cnn", "cnn+cnnchar", "cnn+lstmchar")
CLASS_ORDER = ("no-relation", "CID")

MAGIC = b"CDREXM1\x00"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Model file failures, with a distinct machine-readable code."""

    BAD_MAGIC = "bad_magic"
    TRUNCATED = "truncated"
    SHAPE_MISMATCH = "shape_mismatch"
    BAD_METADATA = "bad_metadata"

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class Hyper:
    n: int
    k: int = 5
    m: int = 100
    rho: float = 0.5
    l2: float = 0.001
    t: int = 2
    learning_rate: float = 1e-4


@dataclass
class Prediction:
    uid: str
    probabilities: np.ndarray
    label: int


@dataclass
class ModelParams:
    variant: str
    tables: EmbeddingSet
    conv_filters: Tensor          # (m, k, d)
    conv_bias: Tensor             # (m,)
    w1: Tensor                    # (t, m)
    b1: Tensor                    # (t,)
    hyper: Hyper
    char_params: CharEncoderParams | None = None

    @property
    def input_dim(self) -> int:
        d = self.tables.word.dim + self.tables.pos1.dim + self.tables.pos2.dim
        if self.char_params is not None:
            d += self.char_params.out_dim
        return d

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """Every learnable tensor, in a fixed serialization order."""
        out = [
            ("tables.word", self.tables.word.weights),
            ("tables.pos1", self.tables.pos1.weights),
            ("tables.pos2", self.tables.pos2.weights),
        ]
        if self.tables.char is not None:
            out.append(("tables.char", self.tables.char.weights))
        if self.char_params is not None:
            out.extend(self.char_params.all_tensors())
        out += [
            ("conv.filters", self.conv_filters),
            ("conv.bias", self.conv_bias),
            ("out.w1", self.w1),
            ("out.b1", self.b1),
        ]
        return out

    def regularizable(self) -> list[Tensor]:
        """Weight matrices under the L2 penalty: convolution filters, LSTM
        gate matrices and W1 — never embedding tables or biases."""
        weights = [self.conv_filters, self.w1]
        if self.char_params is not None:
            weights += self.char_params.weight_matrices()
        return weights

    def parameter_count(self) -> int:
        return sum(t.data.size for _, t in self.named_tensors())


def init_model(vocab, variant: str, rng: Rng, *, m: int = 100, rho: float = 0.5,
               l2: float = 0.001, learning_rate: float = 1e-4, k: int = 5,
               word_dim: int = encoders.WORD_DIM, pos_dim: int = encoders.POS_DIM,
               char_dim: int = encoders.CHAR_DIM,
               char_filters: int = encoders.CHAR_CNN_FILTERS,
               char_window: int = encoders.CHAR_CNN_WINDOW,
               lstm_units: int = encoders.LSTM_UNITS,
               pretrained: dict[str, np.ndarray] | None = None) -> ModelParams:
    """Fresh parameters for a vocabulary (a corpus.Vocab: words, chars, n).
    A window wider than the n rows is a ValueError, as it is a format
    error in a model file."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    n = vocab.n
    if k > n:
        raise ValueError(f"window k={k} is wider than the n={n} rows")
    word = encoders.word_table(vocab.words, rng.derive("word"), dim=word_dim, pretrained=pretrained)
    pos1 = encoders.position_table("pos1", n, rng.derive("pos1"), dim=pos_dim)
    pos2 = encoders.position_table("pos2", n, rng.derive("pos2"), dim=pos_dim)

    char_params = None
    chartab = None
    if variant == "cnn+cnnchar":
        chartab = encoders.char_table(vocab.chars, rng.derive("char"), dim=char_dim)
        char_params = encoders.char_cnn_params(rng.derive("charcnn"), char_dim=char_dim,
                                               num_filters=char_filters, window=char_window)
    elif variant == "cnn+lstmchar":
        chartab = encoders.char_table(vocab.chars, rng.derive("char"), dim=char_dim)
        char_params = encoders.char_bilstm_params(rng.derive("charlstm"), char_dim=char_dim,
                                                  units=lstm_units)

    tables = EmbeddingSet(word, pos1, pos2, chartab, n)
    d = word_dim + 2 * pos_dim + (char_params.out_dim if char_params else 0)
    t = len(CLASS_ORDER)
    conv_filters = Tensor(rng.derive("conv").fill_uniform((m, k, d), -encoders.INIT_RANGE,
                                                          encoders.INIT_RANGE), requires_grad=True)
    conv_bias = Tensor(np.zeros(m), requires_grad=True)
    w1 = Tensor(rng.derive("w1").fill_uniform((t, m), -encoders.INIT_RANGE, encoders.INIT_RANGE),
                requires_grad=True)
    b1 = Tensor(np.zeros(t), requires_grad=True)
    hyper = Hyper(n=n, k=k, m=m, rho=rho, l2=l2, t=t, learning_rate=learning_rate)
    params = ModelParams(variant, tables, conv_filters, conv_bias, w1, b1, hyper, char_params)
    log.info("initialized %s: d=%d, n=%d, %d parameters",
             variant, d, n, params.parameter_count())
    return params


# ---------------------------------------------------------------------------
# Forward pass and loss
#
# The convolution is linear in the concatenated input row, so window j of
# an instance splits into a sum of per-block terms (Zeng et al. 2014):
#
#     bias + sum_h P[h, key(j+h)] + Q1[j - i1 + n - 1] + Q2[j - i2 + n - 1]
#
# A row's key is its (word row, character row) pair.  P holds each
# distinct key's projection by each filter tap, one product for all the
# keys of a minibatch or of a document (`tensor.tap_projections`), and Q1
# and Q2 are the valid convolutions of the position tables, of which an
# instance reads a contiguous run (`tensor.shift_sum`).


@dataclass
class Projections:
    """Terms of the convolution maps that `_probabilities` reads; those
    left None it computes from the instances it classifies.  Built by
    `projections`, they let the forwards of many instances share them,
    valid while the parameters keep their values."""

    chars: tuple[Tensor, dict[str, int]] | None  # character encodings and each form's row
    positions: tuple[tuple[Tensor, int], ...] | None = None  # Q1, Q2 and the row each starts at
    codes: np.ndarray | None = None              # the projected keys' codes, ascending
    taps: Tensor | None = None                   # (k, K, m): row r projects codes[r]


def _chars(instances, params: ModelParams) -> tuple[Tensor, dict[str, int]] | None:
    """All the instances' forms encoded in one `encoders.char_rows` call,
    or None without a character encoder."""
    if params.char_params is None:
        return None
    return encoders.char_rows(instances, params.tables, params.char_params)


def _position_terms(params: ModelParams, instances) -> tuple[tuple[Tensor, int], ...]:
    """Per position table, the valid convolution of the rows that the
    instances' windows read (all of them for a whole split, n for one
    instance) with its filter columns, and the table row it starts at."""
    n, dw, dp = params.hyper.n, params.tables.word.dim, params.tables.pos1.dim
    terms = []
    for name, table, lo in (("i1", params.tables.pos1, dw), ("i2", params.tables.pos2, dw + dp)):
        starts = [n - 1 - getattr(inst, name) for inst in instances]
        rows = T.gather(table.weights, range(min(starts), max(starts) + n))
        terms.append((T.shift_sum(T.tap_projections(rows, params.conv_filters,
                                                    (slice(lo, lo + dp),))), min(starts)))
    return tuple(terms)


def _key_codes(instances, params: ModelParams, chars, lookup_tokens=None,
               labelled: bool = False) -> np.ndarray:
    """(B, n) codes of the rows' keys: word row * C + character row, C the
    number of character rows (1 without a character encoder).  Instances
    are checked in order, for a gold label too when `labelled`."""
    n = params.hyper.n
    codes = np.empty((len(instances), n), dtype=np.intp)
    for b, inst in enumerate(instances):
        if labelled and getattr(inst, "label", None) is None:
            raise ValueError(f"instance {getattr(inst, 'uid', '?')} has no gold label")
        word_tokens = lookup_tokens.get(inst.uid) if lookup_tokens else None
        real, lookup = encoders.padded_tokens(inst, n, word_tokens)
        codes[b] = [params.tables.word_rows[tok] for tok in lookup]
        if chars is not None:
            codes[b] *= len(chars[1])
            codes[b] += [chars[1][tok] for tok in real]
    return codes


def _key_projections(codes: np.ndarray, params: ModelParams, chars) -> tuple[np.ndarray, Tensor]:
    """The distinct codes, ascending, and their (k, K, m) tap projections:
    the word rows, then the character rows, meet their filter columns."""
    unique = np.unique(codes)
    dw, d = params.tables.word.dim, params.input_dim
    rows = T.gather(params.tables.word.weights, unique // (len(chars[1]) if chars else 1))
    columns = (slice(0, dw),)
    if chars is not None:
        rows = T.concat([rows, T.gather(chars[0], unique % len(chars[1]))])
        columns += (slice(d - chars[0].shape[1], d),)
    return unique, T.tap_projections(rows, params.conv_filters, columns)


def _probabilities(instances, params: ModelParams, terms: Projections, rng: Rng | None = None,
                   lookup_tokens=None, labelled: bool = False) -> Tensor:
    """(B, t) probabilities over CLASS_ORDER of the instances, whose forms
    `terms.chars` covers; `loss` and `forward` both build them here.

    The instances are checked first (`_key_codes`).  The keys' tap
    projections and the position terms are those of `terms`, or else
    each distinct key is projected by each filter tap in one product.
    Every instance's map, ReLU and max over time come from one
    `tensor.tap_sum_relu_max` node, and dropout (its uniforms drawn from
    `rng` last; none without `rng`), the output layer and the softmax are
    one node each.  ValueError when `terms` lacks a key."""
    try:
        codes = _key_codes(instances, params, terms.chars, lookup_tokens, labelled)
    except KeyError as exc:  # a form outside the shared character encodings
        raise ValueError(f"the shared projections lack the form {exc.args[0]!r}") from None
    unique, taps = ((terms.codes, terms.taps) if terms.taps is not None
                    else _key_projections(codes, params, terms.chars))
    keys = np.minimum(np.searchsorted(unique, codes), len(unique) - 1)
    missing = (unique[keys] != codes).any(axis=1)
    if missing.any():
        inst = instances[int(np.argmax(missing))]
        raise ValueError(f"instance {getattr(inst, 'uid', '?')} has rows whose keys "
                         "the shared projections lack")
    last = params.hyper.n - 1
    shifted = [(term, np.array([last - getattr(inst, name) - first for inst in instances]))
               for name, (term, first) in zip(("i1", "i2"),
                                              terms.positions or _position_terms(params, instances))]
    z = T.tap_sum_relu_max(taps, keys, shifted, params.conv_bias)
    uniforms = None
    if rng is not None and params.hyper.rho != 0.0:  # one draw, equal to one per instance
        uniforms = rng.fill_uniform((len(instances), params.conv_filters.shape[0]), 0.0, 1.0)
    z = T.dropout(z, params.hyper.rho, uniforms)
    return T.softmax(T.linear(z, params.w1, params.b1))


def shared_terms(instances, params: ModelParams) -> Projections:
    """Without a graph, the terms that the instances' forwards share and
    that do not depend on their keys: all their forms encoded in one
    `encoders.char_rows` call, and the position terms.  Each instance is
    checked first (`encoders.padded_tokens`), since the position terms
    index the tables by its entity positions."""
    for inst in instances:
        encoders.padded_tokens(inst, params.hyper.n)
    with T.no_grad():
        return Projections(_chars(instances, params), _position_terms(params, instances))


def projections(instances, params: ModelParams, shared: Projections | None = None) -> Projections:
    """`shared` (by default `shared_terms(instances, params)`, which it must
    cover) with, computed without a graph, the tap projections of the
    instances' distinct keys, for `forward` to share.

    The keys are projected in one matrix product per tap, and OpenBLAS may
    round a row of a product differently with a different row count, so a
    key's bits may depend on which other keys are projected with it: the
    same instances give the same bits, other company may change the last
    ones.  The position terms likewise depend on the rows they cover."""
    shared = shared or shared_terms(instances, params)
    with T.no_grad():
        codes, taps = _key_projections(_key_codes(instances, params, shared.chars),
                                       params, shared.chars)
    return Projections(shared.chars, shared.positions, codes, taps)


def forward(instance, params: ModelParams, rng: Rng, training: bool = False,
            shared: Projections | None = None) -> Prediction:
    """Class probabilities and label for one instance, computed without a
    graph, with dropout only when `training`: `_probabilities` of the
    instance alone.

    The instance's map reads its keys' rows of `shared` (from
    `projections`, for instances that include this one), or of
    projections of its own keys; the two agree within a few units in the
    last place (see `projections`).  ValueError when `shared` lacks one
    of the instance's keys."""
    with T.no_grad():
        terms = shared or Projections(_chars([instance], params))
        p = _probabilities([instance], params, terms, rng if training else None).data[0].copy()
    return Prediction(uid=getattr(instance, "uid", ""), probabilities=p, label=int(np.argmax(p)))


def loss(batch, params: ModelParams, rng: Rng,
         lookup_tokens: dict[str, list[str]] | None = None) -> Tensor:
    """Mean per-instance negative log likelihood over the batch, plus the
    L2 penalty added once (not per instance).

    One graph serves the whole batch: its forms are encoded once
    (`encoders.char_rows`), its probabilities built by `_probabilities`,
    and the NLL is one node over them.  The dropout uniforms of the batch
    are drawn in one draw that leaves `rng` as one draw per instance does.
    The instances are checked in order, and the first that has no gold
    label or does not fit raises ValueError before `rng` is drawn from."""
    if not batch:
        raise ValueError("loss needs a nonempty batch")
    p = _probabilities(batch, params, Projections(_chars(batch, params)), rng, lookup_tokens,
                       labelled=True)
    mean = T.nll_loss(p, [inst.label for inst in batch])
    if params.hyper.l2 != 0.0:
        penalty = None
        for w in params.regularizable():
            term = T.sum_all(T.mul(w, w))
            penalty = term if penalty is None else T.add(penalty, term)
        mean = T.add(mean, T.scale(penalty, params.hyper.l2))
    return mean


# ---------------------------------------------------------------------------
# Serialization


def _metadata(params: ModelParams) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "variant": params.variant,
        "class_order": list(CLASS_ORDER),
        "hyper": {
            "n": params.hyper.n, "k": params.hyper.k, "m": params.hyper.m,
            "rho": params.hyper.rho, "l2": params.hyper.l2, "t": params.hyper.t,
            "learning_rate": params.hyper.learning_rate,
        },
        "dims": {
            "word": params.tables.word.dim,
            "pos": params.tables.pos1.dim,
            "char": params.tables.char.dim if params.tables.char else None,
        },
        "word_index": params.tables.word.index,
        "char_index": params.tables.char.index if params.tables.char else None,
        "pos_index": {str(rel): i for rel, i in params.tables.pos1.index.items()},
    }


def save_model(params: ModelParams, path) -> None:
    """Binary model file: magic, length-prefixed JSON metadata, then each
    tensor as name, rank, dims and float64 payload, all little-endian.

    The file is written beside the target and renamed over it, so a failed
    write leaves any previous model at `path` intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        _write_model(params, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_model(params: ModelParams, path) -> None:
    meta = json.dumps(_metadata(params), separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(meta)))
        fh.write(meta)
        named = params.named_tensors()
        fh.write(struct.pack("<Q", len(named)))
        for name, tensor in named:
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<Q", tensor.data.ndim))
            for dim in tensor.data.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").data)  # no copy


class _Reader:
    """Reads the rest of a model file, checking each length against the
    bytes left before reading (and so before allocating) anything."""

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def take(self, count: int, what: str) -> bytes:
        buf = self.fh.read(count) if count <= self.left else b""
        if len(buf) != count:
            raise ModelFormatError(ModelFormatError.TRUNCATED,
                                   f"truncated payload while reading {what}")
        self.left -= count
        return buf

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def text(self, count: int, what: str) -> str:
        try:
            return self.take(count, what).decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFormatError(ModelFormatError.BAD_METADATA, f"{what} is not UTF-8") from None


def load_model(path) -> ModelParams:
    """Read a model written by `save_model`.  Any malformed content raises
    ModelFormatError, never another exception."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ModelFormatError(ModelFormatError.BAD_MAGIC,
                                   f"bad magic {magic!r}, not a model file")
        reader = _Reader(fh)
        meta_text = reader.text(reader.u64("metadata length"), "metadata")
        try:
            meta = json.loads(meta_text)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(ModelFormatError.BAD_METADATA,
                                   f"metadata is not JSON ({exc})") from None
        count = reader.u64("tensor count")
        tensors: dict[str, Tensor] = {}
        for _ in range(count):
            name = reader.text(reader.u64("tensor name length"), "tensor name")
            rank = reader.u64(f"{name} rank")
            if 8 * rank > reader.left:
                raise ModelFormatError(ModelFormatError.TRUNCATED, f"truncated {name} dims")
            dims = [reader.u64(f"{name} dims") for _ in range(rank)]
            payload = reader.take(8 * math.prod(dims), f"{name} payload")
            try:
                data = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
            except ValueError as exc:  # e.g. a zero dim beside one too large to index
                raise ModelFormatError(ModelFormatError.SHAPE_MISMATCH,
                                       f"tensor {name} dims {dims}: {exc}") from None
            if not np.all(np.isfinite(data)):
                raise ModelFormatError(ModelFormatError.BAD_METADATA,
                                       f"tensor {name} holds non-finite values")
            tensors[name] = Tensor(data, requires_grad=True)
        if reader.left:
            raise ModelFormatError(ModelFormatError.BAD_METADATA,
                                   f"{reader.left} bytes after the last tensor")
    try:
        return _assemble(meta, tensors)
    except ModelFormatError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(ModelFormatError.BAD_METADATA,
                               f"bad metadata ({type(exc).__name__}: {exc})") from None


def _table_from(name: str, weights: Tensor, index: dict,
                required: tuple[str, ...]) -> EmbeddingTable:
    if weights.data.ndim != 2:
        raise ModelFormatError(ModelFormatError.SHAPE_MISMATCH,
                               f"{name} table has shape {weights.shape}, expected 2-D")
    rows = weights.shape[0]
    if not all(isinstance(i, int) and 0 <= i < rows for i in index.values()) or \
            not all(key in index for key in required):
        raise ModelFormatError(ModelFormatError.BAD_METADATA,
                               f"{name} index does not fit its {rows}-row table")
    return EmbeddingTable(name, weights.shape[1], weights, index)


def _positive_int(value, what: str) -> int:
    if type(value) is not int or value < 1:
        raise ModelFormatError(ModelFormatError.BAD_METADATA,
                               f"{what} is {value!r}, expected an integer >= 1")
    return value


def _assemble(meta: dict, tensors: dict[str, Tensor]) -> ModelParams:
    def need(name: str, shape: tuple | None = None) -> Tensor:
        t = tensors.get(name)
        if t is None:
            raise ModelFormatError(ModelFormatError.SHAPE_MISMATCH, f"missing tensor {name}")
        if shape is not None and t.shape != shape:
            raise ModelFormatError(ModelFormatError.SHAPE_MISMATCH,
                                   f"tensor {name} has shape {t.shape}, metadata implies {shape}")
        return t

    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(ModelFormatError.BAD_METADATA,
                               f"format version {version!r}, expected {FORMAT_VERSION}")
    variant = meta["variant"]
    if variant not in VARIANTS:
        raise ModelFormatError(ModelFormatError.SHAPE_MISMATCH, f"unknown variant {variant!r}")
    h = meta["hyper"]
    hyper = Hyper(n=_positive_int(h["n"], "n"), k=_positive_int(h["k"], "k"),
                  m=_positive_int(h["m"], "m"), rho=h["rho"], l2=h["l2"], t=h["t"],
                  learning_rate=h["learning_rate"])
    if hyper.t != len(CLASS_ORDER) or not 0.0 <= hyper.rho < 1.0:
        raise ModelFormatError(ModelFormatError.BAD_METADATA,
                               f"t={hyper.t!r}, rho={hyper.rho!r} out of range")
    if hyper.k > hyper.n:
        raise ModelFormatError(ModelFormatError.BAD_METADATA,
                               f"window k={hyper.k} is wider than the n={hyper.n} rows")
    n = hyper.n
    word = _table_from("word", need("tables.word"), dict(meta["word_index"]),
                       (encoders.PAD_WORD, encoders.UNK_WORD))
    pos_rows = 2 * n - 1
    pos_dim = _positive_int(meta["dims"]["pos"], "position dim")
    pos_index = {rel: rel + n - 1 for rel in range(-(n - 1), n)}
    pos1 = _table_from("pos1", need("tables.pos1", (pos_rows, pos_dim)), dict(pos_index), ())
    pos2 = _table_from("pos2", need("tables.pos2", (pos_rows, pos_dim)), dict(pos_index), ())

    chartab = None
    char_params = None
    if variant != "cnn":
        chartab = _table_from("char", need("tables.char"), dict(meta["char_index"]),
                              (encoders.PAD_CHAR, encoders.UNK_CHAR))
        char_dim = chartab.dim
        if variant == "cnn+cnnchar":
            filters = need("char_cnn.filters")
            if filters.data.ndim != 3 or filters.shape[2] != char_dim:
                raise ModelFormatError(ModelFormatError.SHAPE_MISMATCH,
                                       f"char_cnn.filters has shape {filters.shape}")
            char_params = CharEncoderParams(
                "cnn", filters=filters, bias=need("char_cnn.bias", (filters.shape[0],)))
        else:
            units = need("char_lstm.fwd.wh").shape[0]
            char_params = CharEncoderParams(
                "bilstm", **{tag: LstmParams(need(f"char_lstm.{tag}.wx", (char_dim, 4 * units)),
                                             need(f"char_lstm.{tag}.wh", (units, 4 * units)),
                                             need(f"char_lstm.{tag}.b", (4 * units,)))
                             for tag in ("fwd", "bwd")})

    tables = EmbeddingSet(word, pos1, pos2, chartab, n)
    d = word.dim + 2 * pos_dim + (char_params.out_dim if char_params else 0)
    params = ModelParams(
        variant, tables,
        conv_filters=need("conv.filters", (hyper.m, hyper.k, d)),
        conv_bias=need("conv.bias", (hyper.m,)),
        w1=need("out.w1", (hyper.t, hyper.m)),
        b1=need("out.b1", (hyper.t,)),
        hyper=hyper,
        char_params=char_params,
    )
    return params
