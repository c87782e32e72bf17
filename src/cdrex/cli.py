"""Command-line entry point.

    cdrex train      --train T --dev D --model-out M [options]
    cdrex eval       --model-in M --test X --train T [--compare M2] [options]
    cdrex gridsearch --train T --dev D --model-out DIR --report R [options]
    cdrex predict    --model-in M --test X [--train T] [options]
    cdrex gradcheck  [--seed N]

Options may come from a flat key-value config file (`--config`, lines of
`key = value`, `#` comments); explicit flags override file values.  All
randomness flows from the single seed through derived per-component
streams, so identical configurations reproduce byte-identical outputs.

Exit codes: 0 success, 1 corpus/model parse error or a training corpus that
cannot be trained on, 2 configuration error, 3 numeric failure, 4
model/corpus vocabulary mismatch.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import logging
import os
import sys
from typing import Any, Callable

import numpy as np

from . import corpus, encoders, evaluation, model, optim
from . import tensor as T
from .rng import Rng

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VOCAB = 4


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(","))


@dataclasses.dataclass(frozen=True)
class Option:
    """One run option: a config-file key, its command-line flag (when it
    has help text) and a RunConfig field."""

    key: str                          # config-file key; the flag is --key, "_" as "-"
    parse: Callable[[str], Any]       # value parser, for the file and the flag
    help: str | None = None           # None: config-file only, no flag
    default: Any = None
    field: str | None = None          # RunConfig field, when it is not `key`
    choices: tuple[str, ...] | None = None
    switch: bool = False              # a flag without a value, setting True
    path: bool = False                # must name an existing file

    @property
    def dest(self) -> str:
        return self.field or self.key

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


# Options whose field is also a TrainConfig field take their default from
# TrainConfig, so training defaults are written only there.
OPTIONS = (
    Option("train", str, "training corpus (PubTator format)", path=True),
    Option("dev", str, "development corpus", path=True),
    Option("test", str, "test corpus", path=True),
    Option("emb", str, "pre-trained word vectors (text format)", path=True),
    Option("model_in", str, "model file to load", path=True),
    Option("model_out", str, "model file or directory to write"),
    Option("report", str, "report file to write"),
    Option("variant", str, "model variant", choices=model.VARIANTS),
    Option("lambda", float, "Nadam learning rate", field="learning_rate"),
    Option("filters", int, "number of convolution filters"),
    Option("dropout", float, "dropout probability on the feature vector"),
    Option("epochs", int, "training epochs"),
    Option("batch_size", int, "minibatch size"),
    Option("seed", int, "master random seed"),
    Option("debug_numerics", _parse_bool, "assert finiteness of every tensor operation",
           default=False, switch=True),
    Option("compare", str, "second model file for a bootstrap comparison", path=True),
    Option("oracle", _parse_bool, "score gold pairs against themselves (test only)",
           default=False, switch=True),
    Option("grid_lambdas", _floats, default=optim.GRID_LEARNING_RATES),
    Option("grid_filters", _ints, default=optim.GRID_FILTERS),
    Option("grid_dropouts", _floats, default=optim.GRID_DROPOUTS),
)
_BY_KEY = {opt.key: opt for opt in OPTIONS}
_TRAIN_DEFAULTS = optim.TrainConfig()
_TRAIN_FIELDS = [opt.dest for opt in OPTIONS if hasattr(_TRAIN_DEFAULTS, opt.dest)]

RunConfig = dataclasses.make_dataclass("RunConfig", [("command", str)] + [
    (opt.dest, Any, dataclasses.field(default=getattr(_TRAIN_DEFAULTS, opt.dest, opt.default)))
    for opt in OPTIONS])


def load_config_file(path: str) -> dict:
    """Flat `key = value` configuration, returned by RunConfig field;
    unknown keys are rejected."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, raw = (part.strip() for part in line.split("=", 1))
                opt = _BY_KEY.get(key)
                if opt is None:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    value = opt.parse(raw)
                    if opt.choices and value not in opt.choices:
                        raise ValueError(raw)
                except ConfigError:
                    raise
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: bad value {raw!r} for {key}") from None
                values[opt.dest] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdrex",
        description="CNN chemical-disease relation extraction",
        epilog="environment: CDREX_LOGLEVEL sets the logging level")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "train a model and keep the best dev-F1 epoch"),
        ("eval", "score a model on a labelled corpus"),
        ("gridsearch", "train the hyperparameter grid and keep the winner"),
        ("predict", "emit document-level pairs for an unlabelled corpus"),
        ("gradcheck", "finite-difference check of every operation a model runs"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", help="flat key-value config file; flags override it")
        for opt in OPTIONS:
            if opt.help is None:
                continue
            if opt.switch:
                command.add_argument(opt.flag, dest=opt.dest, action="store_const", const=True,
                                     help=opt.help)
            else:
                command.add_argument(opt.flag, dest=opt.dest, type=opt.parse,
                                     choices=opt.choices, help=opt.help)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file {args.config!r} does not exist")
        values.update(load_config_file(args.config))
    for key in vars(args):
        if key in ("command", "config"):
            continue
        flag_value = getattr(args, key)
        if flag_value is not None:
            values[key] = flag_value
    cfg = RunConfig(command=args.command, **values)
    for opt in OPTIONS:
        path = getattr(cfg, opt.dest)
        if opt.path and path is not None and not os.path.exists(path):
            raise ConfigError(f"{opt.flag}: path {path!r} does not exist")
    if not all(0.0 <= rho < 1.0 for rho in (cfg.dropout, *cfg.grid_dropouts)):
        raise ConfigError(f"dropout and grid_dropouts must be in [0, 1), got "
                          f"{cfg.dropout} and {cfg.grid_dropouts}")
    if not all(0.0 <= rate < np.inf for rate in (cfg.learning_rate, *cfg.grid_lambdas)):
        raise ConfigError(f"lambda and grid_lambdas must be finite and >= 0, got "
                          f"{cfg.learning_rate} and {cfg.grid_lambdas}")
    if cfg.epochs < 0 or cfg.batch_size < 1 or min(cfg.filters, *cfg.grid_filters) < 1:
        raise ConfigError(f"epochs must be >= 0, batch_size, filters and grid_filters >= 1, got "
                          f"{cfg.epochs}, {cfg.batch_size}, {cfg.filters} and {cfg.grid_filters}")
    return cfg


# ---------------------------------------------------------------------------
# Shared helpers


def _require(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"--{key.replace('_', '-')} is required for {cfg.command}")


def _load_documents(path: str) -> list[corpus.Document]:
    """Parse a PubTator file; bytes that are not UTF-8 raise ParseError
    naming the file and the line that holds them."""
    try:
        with open(path, encoding="utf-8") as fh:
            return corpus.parse_pubtator(fh)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise corpus.ParseError(f"{path}: line {lineno}: not UTF-8 text") from None
        raise


def _load_split(path: str) -> optim.DataSplit:
    docs = _load_documents(path)
    return optim.DataSplit(docs, [inst for doc in docs for inst in corpus.build_instances(doc)])


def _load_training_data(cfg: RunConfig) -> tuple[optim.DataSplit, optim.DataSplit, corpus.Vocab,
                                                  dict[str, np.ndarray] | None]:
    """Train and dev splits, the training vocabulary, and the pre-trained
    vectors for its words (None without --emb)."""
    train_data = _load_split(cfg.train)
    if not train_data.instances:
        raise UnusableCorpus(f"{cfg.train}: no chemical-disease mention pair to train on")
    dev_data = _load_split(cfg.dev)
    vocab = corpus.build_vocab(train_data.documents, train_data.instances)
    if vocab.n < _TRAIN_DEFAULTS.window:
        raise UnusableCorpus(f"{cfg.train}: the longest instance has {vocab.n} tokens, fewer "
                             f"than the convolution window of {_TRAIN_DEFAULTS.window}")
    log.info("training corpus: %d documents, %d instances, n=%d",
             len(train_data.documents), len(train_data.instances), vocab.n)
    pretrained = None
    if cfg.emb is not None:
        pretrained = encoders.load_word_vectors(cfg.emb, dim=_TRAIN_DEFAULTS.word_dim,
                                                vocab=set(vocab.words))
    return train_data, dev_data, vocab, pretrained


def _train_config(cfg: RunConfig) -> optim.TrainConfig:
    return optim.TrainConfig(**{name: getattr(cfg, name) for name in _TRAIN_FIELDS})


def _check_vocabulary_overlap(params: model.ModelParams, split: optim.DataSplit) -> None:
    # Bare punctuation tokens overlap any two corpora, so only word-like
    # tokens count.  Zero overlap is definitive: every lookup would fall to
    # the UNK row and scores would be meaningless.
    reserved = {encoders.PAD_WORD, encoders.UNK_WORD}
    vocab = set(params.tables.word.index) - reserved
    raw = {tok for inst in split.instances for tok in inst.tokens}  # each form checked once
    seen = {tok.lower() for tok in raw if any(c.isalnum() for c in tok)}
    if seen and vocab and not (vocab & seen):
        raise VocabularyMismatch(
            "model vocabulary shares no words with the corpus; the model was "
            "trained on different data or the corpus is in the wrong format")


class VocabularyMismatch(ValueError):
    pass


class UnusableCorpus(ValueError):
    """A training corpus that parses but cannot be trained on."""


# ---------------------------------------------------------------------------
# Commands


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "train", "dev", "model_out")
    train_data, dev_data, vocab, pretrained = _load_training_data(cfg)
    report, _ = optim.train(_train_config(cfg), train_data, dev_data,
                            model_path=cfg.model_out, pretrained=pretrained, vocab=vocab)
    if cfg.report:
        with open(cfg.report, "w", encoding="utf-8") as fh:
            fh.write(optim.render_train_report(report))
    if report.status.startswith("aborted"):
        print(f"cdrex train: {report.status}", file=sys.stderr)
        return EXIT_NUMERIC
    if report.best_f1 is not None:
        print(f"trained {cfg.variant}: best epoch {report.best_epoch} "
              f"dev F1 {report.best_f1:.1f}")
    else:
        print(f"trained {cfg.variant}: {report.status}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    _require(cfg, "model_in", "test", "train")
    params = model.load_model(cfg.model_in)
    test_data = _load_split(cfg.test)
    train_rel = optim.training_relations(_load_documents(cfg.train))
    gold = {doc.pmid: set(doc.gold_cid) for doc in test_data.documents}

    if cfg.oracle:
        predicted = {pmid: set(pairs) for pmid, pairs in gold.items()}
    else:
        _check_vocabulary_overlap(params, test_data)
        predicted = optim.predict_pairs(test_data, params, train_rel)
    report = evaluation.evaluate(gold, predicted)

    if cfg.compare:
        rival = model.load_model(cfg.compare)
        rival_pairs = optim.predict_pairs(test_data, rival, train_rel)
        p_value = evaluation.bootstrap_test(predicted, rival_pairs, gold,
                                            iterations=10_000,
                                            rng=Rng(cfg.seed).derive("bootstrap"))
        report.bootstrap = {"p_value": p_value, "iterations": 10_000, "seed": cfg.seed}

    print(f"{report.precision:.1f} {report.recall:.1f} {report.f1:.1f}")
    if report.bootstrap:
        print(f"bootstrap p={report.bootstrap['p_value']:.4f}")
    if cfg.report:
        with open(cfg.report, "w", encoding="utf-8") as fh:
            fh.write(evaluation.render_report(report))
    return EXIT_OK


def cmd_gridsearch(cfg: RunConfig) -> int:
    _require(cfg, "train", "dev", "model_out", "report")
    train_data, dev_data, vocab, pretrained = _load_training_data(cfg)
    grid = optim.default_grid(_train_config(cfg), cfg.grid_lambdas, cfg.grid_filters,
                              cfg.grid_dropouts)
    os.makedirs(cfg.model_out, exist_ok=True)
    try:
        result = optim.grid_search(grid, train_data, dev_data, base_seed=cfg.seed,
                                   model_dir=cfg.model_out, pretrained=pretrained, vocab=vocab)
    except optim.GridSearchError as exc:
        _write_grid_report(cfg.report, "winner -", exc.reports, exc.failures)
        print(f"cdrex gridsearch: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    best = result.best_config
    _write_grid_report(cfg.report,
                       f"winner lambda={best.learning_rate!r} filters={best.filters} "
                       f"dropout={best.dropout!r} f1={result.best_report.best_f1!r}",
                       result.reports, result.failures)
    print(f"grid winner: lambda={best.learning_rate} filters={best.filters} "
          f"dropout={best.dropout} dev F1 {result.best_report.best_f1:.1f}")
    return EXIT_OK


def _write_grid_report(path: str, winner: str, reports: list[optim.TrainReport],
                       failures: list[tuple[optim.TrainConfig, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(winner + "\n")
        for report in reports:
            fh.write("\n" + optim.render_train_report(report))
        for failed_cfg, message in failures:
            fh.write(f"\nfailed lambda={failed_cfg.learning_rate!r} "
                     f"filters={failed_cfg.filters} dropout={failed_cfg.dropout!r}: {message}\n")


def cmd_predict(cfg: RunConfig) -> int:
    _require(cfg, "model_in", "test")
    params = model.load_model(cfg.model_in)
    test_data = _load_split(cfg.test)
    train_rel = set()
    if cfg.train:
        train_rel = optim.training_relations(_load_documents(cfg.train))
    _check_vocabulary_overlap(params, test_data)
    predicted = optim.predict_pairs(test_data, params, train_rel)
    lines = [f"{pmid}\t{chem}\t{dis}"
             for pmid in sorted(predicted) for chem, dis in sorted(predicted[pmid])]
    output = "\n".join(lines) + ("\n" if lines else "")
    if cfg.report:
        with open(cfg.report, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Gradient-check suite


def _op_checks(rng: Rng) -> float:
    """Finite-difference check of each operation a model runs, in isolation."""
    worst = 0.0

    def check(f, inputs):
        nonlocal worst
        worst = max(worst, T.grad_check(f, inputs, eps=1e-4))

    a = T.Tensor(rng.fill_uniform((4, 3), -1, 1), requires_grad=True)
    b = T.Tensor(rng.fill_uniform((4, 3), -1, 1), requires_grad=True)
    check(lambda: T.sum_all(T.add(a, b)), [a, b])
    check(lambda: T.sum_all(T.mul(a, b)), [a, b])
    check(lambda: T.sum_all(T.scale(a, -1.7)), [a])
    check(lambda: T.sum_all(T.concat([a, b])), [a, b])
    check(lambda: T.sum_all(T.row(a, 2)), [a])
    check(lambda: T.sum_all(T.gather(a, [0, 2, 2, 1])), [a])

    w = T.Tensor(rng.fill_uniform((3, 5), -1, 1), requires_grad=True)
    inp = T.Tensor(rng.fill_uniform((6, 3), -1, 1), requires_grad=True)
    filt = T.Tensor(rng.fill_uniform((4, 2, 3), -1, 1), requires_grad=True)
    bias = T.Tensor(rng.fill_uniform((4,), -1, 1), requires_grad=True)
    logits = T.Tensor(rng.fill_uniform((3,), -1, 1), requires_grad=True)
    check(lambda: T.nll_loss(T.softmax(logits), 1), [logits])

    # Three sequences of lengths 1, 2 and 5 over 3-wide inputs, 2 units.
    seqs = T.Tensor(rng.fill_uniform((8, 3), -1, 1), requires_grad=True)
    lstm = [T.Tensor(rng.fill_uniform(shape, -1, 1), requires_grad=True)
            for shape in ((3, 8), (2, 8), (8,))]
    mix = T.Tensor(rng.fill_uniform((3, 2), -1, 1))
    for reverse in (False, True):
        check(lambda r=reverse: T.sum_all(
            T.mul(T.lstm_final_states(seqs, [1, 2, 5], *lstm, r), mix)), [seqs] + lstm)

    weights = T.Tensor(rng.fill_uniform((2, 4), -1, 1))  # lengths 2 (one window) and 4
    check(lambda: T.sum_all(T.mul(T.conv_relu_max(inp, [2, 4], filt, bias), weights)), [inp, filt, bias])

    # The batched head: each row's tap projections, a table's shift sum,
    # two instances' maps (n=4, L=3) and the batched output layer.
    def taps():
        return T.tap_projections(inp, filt, (slice(0, 1), slice(1, 3)))
    sums = T.Tensor(rng.fill_uniform((5, 4), -1, 1))
    check(lambda: T.sum_all(T.mul(T.shift_sum(taps()), sums)), [inp, filt])
    table = T.Tensor(rng.fill_uniform((6, 4), -1, 1), requires_grad=True)
    keys = np.array([[0, 5, 2, 2], [1, 3, 4, 0]])
    pooled = T.Tensor(rng.fill_uniform((2, 4), -1, 1))
    check(lambda: T.sum_all(T.mul(T.tap_sum_relu_max(taps(), keys, [(table, np.array([0, 3]))],
                                                     bias), pooled)), [inp, filt, table, bias])
    rows = T.Tensor(rng.fill_uniform((3, 5), -1, 1), requires_grad=True)
    check(lambda: T.nll_loss(T.softmax(T.linear(rows, w, logits)), [2, 0, 1]), [rows, w, logits])
    uniforms = rng.fill_uniform(a.shape, 0, 1)
    check(lambda: T.sum_all(T.dropout(a, 0.5, uniforms)), [a])
    return worst


def _model_loss_check(variant: str, seed: int) -> float:
    rng = Rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    vocab = corpus.Vocab(words=words, counts={w: 1 for w in words},
                         chars=sorted(set("".join(words) + "PAD")), n=5)
    params = model.init_model(vocab, variant, rng.derive("init"), m=4, rho=0.0, l2=0.001,
                              k=2, word_dim=6, pos_dim=3, char_dim=4,
                              char_filters=3, char_window=2, lstm_units=3)
    # Unit-scale random parameters keep ReLU kinks and pooling argmax
    # switches far from the eps ball; the training-time +/-0.05 init puts
    # activations at the same magnitude as eps and breaks central
    # differences at non-differentiable points.
    fill = rng.derive("fill")
    for _, t in params.named_tensors():
        t.data[:] = fill.fill_uniform(t.shape, -0.5, 0.5)
    token_rng = rng.derive("tokens")
    def random_instance(uid):
        tokens = [words[token_rng.randbelow(len(words))] for _ in range(5)]
        i1 = token_rng.randbelow(5)
        i2 = (i1 + 1 + token_rng.randbelow(4)) % 5
        return corpus.RelationInstance(uid, "0", tokens, i1, i2, "C", "D",
                                       token_rng.randbelow(2))
    batch = [random_instance("0#0"), random_instance("0#1")]
    inputs = [t for _, t in params.named_tensors()]
    return T.grad_check(lambda: model.loss(batch, params, Rng(0)), inputs, eps=1e-4)


def gradcheck_suite(seeds=(0, 1, 2)) -> float:
    """Maximum relative error across per-operation checks and composed
    model losses for both character variants."""
    worst = 0.0
    for seed in seeds:
        worst = max(worst, _op_checks(Rng(seed ^ 0x5EED)))
        for variant in ("cnn+cnnchar", "cnn+lstmchar"):
            worst = max(worst, _model_loss_check(variant, seed))
    return worst


def cmd_gradcheck(cfg: RunConfig) -> int:
    worst = gradcheck_suite()
    print(f"maximum relative error {worst:.3e}")
    if worst >= 1e-4:
        print("cdrex gradcheck: analytic and numeric gradients disagree", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "gridsearch": cmd_gridsearch,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
}


def pin_blas_threads() -> bool:
    """Set the OpenBLAS that numpy loaded to one thread, through its own
    setter; False, with one log line, when none is found.

    OpenBLAS splits some products between threads and rounds them
    differently with another thread count, so without the pin the bits of
    a model file would depend on the machine."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return True
    log.warning("no OpenBLAS thread setter found; BLAS threads left as they are, "
                "so outputs may depend on the BLAS thread count")
    return False


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("CDREX_LOGLEVEL", "WARNING"),
                        format="%(levelname)s %(name)s: %(message)s")
    pin_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"cdrex: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    T.set_debug_numerics(cfg.debug_numerics)
    try:
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"cdrex: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VocabularyMismatch as exc:
        print(f"cdrex: vocabulary mismatch: {exc}", file=sys.stderr)
        return EXIT_VOCAB
    except (corpus.ParseError, model.ModelFormatError, encoders.VectorFormatError) as exc:
        print(f"cdrex: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnusableCorpus as exc:
        print(f"cdrex: unusable corpus: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except T.NumericsError as exc:
        print(f"cdrex: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
