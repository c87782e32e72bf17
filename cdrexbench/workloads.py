"""The benchmark's workloads: set-up, one call through a public entry point,
and the checks on that call's outputs.

Each workload is a closed loop with one caller: the next call starts when
the previous one has returned.  The program sees only the generated
PubTator text and the `DataSplit`s built from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np

import corpusgen
from cdrex import cli, corpus, evaluation, model, optim
from cdrex.rng import Rng

# Documents whose instances the training sample is drawn from.  Building
# instances for all 500 documents would dominate set-up (about 3 s).
SAMPLE_POOL_DOCS = 40


def sample_instances(docs, count: int, rng: np.random.Generator):
    """A seeded sample of `count` mention-pair instances.  The longest
    window of the pool is always included, so the model's sequence length n
    is that of full-length documents, as when training on the whole split."""
    pool = sorted(int(k) for k in rng.choice(len(docs), size=SAMPLE_POOL_DOCS, replace=False))
    candidates = [inst for k in pool for inst in corpus.build_instances(docs[k])]
    longest = max(range(len(candidates)), key=lambda k: len(candidates[k].tokens))
    rest = [k for k in range(len(candidates)) if k != longest]
    picks = sorted(int(k) for k in rng.choice(len(rest), size=count - 1, replace=False))
    return [candidates[longest]] + [candidates[rest[k]] for k in picks]


def split_of(text: str) -> optim.DataSplit:
    docs = corpus.parse_pubtator(text)
    return optim.DataSplit(docs, [inst for doc in docs for inst in corpus.build_instances(doc)])


class Workload:
    """Base: subclasses fill in setup, call and check."""

    instances_per_call = 0

    def __init__(self):
        self._digest: str | None = None

    def same_as_first(self, *blobs: bytes) -> bool:
        """Whether this call's outputs are byte-identical to the first call's."""
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        if self._digest is None:
            self._digest = digest
        return digest == self._digest


class Train(Workload):
    """`optim.train` with dev-F1 selection and a model save, as `cdrex
    train` runs it, on a seeded sample of a generated split."""

    def __init__(self, workdir: str, variant: str, shape: corpusgen.Shape,
                 sample: int, epochs: int, dev_docs: int):
        super().__init__()
        self.variant, self.shape = variant, shape
        self.sample, self.epochs, self.dev_docs = sample, epochs, dev_docs
        self.instances_per_call = sample * epochs
        self.model_path = os.path.join(workdir, "train.model")

    def setup(self, seed: int) -> None:
        docs = corpus.parse_pubtator(corpusgen.generate(self.shape, seed, "train"))
        instances = sample_instances(docs, self.sample, np.random.default_rng([seed, 1]))
        self.vocab = corpus.build_vocab(docs, instances)
        self.train_split = optim.DataSplit(docs, instances)
        self.dev_split = split_of(corpusgen.generate(self.shape, seed, "dev", docs=self.dev_docs))
        self.config = optim.TrainConfig(variant=self.variant, epochs=self.epochs, seed=seed)

    def call(self):
        report, _ = optim.train(self.config, self.train_split, self.dev_split,
                                model_path=self.model_path, vocab=self.vocab)
        return report

    def check(self, report) -> list[str]:
        problems = []
        if report.status != "trained":
            problems.append(f"status {report.status!r}")
        if len(report.epochs) != self.epochs or not all(math.isfinite(e.loss) for e in report.epochs):
            problems.append(f"epoch losses {[e.loss for e in report.epochs]}")
        try:
            loaded = model.load_model(self.model_path)
        except (OSError, model.ModelFormatError) as exc:
            return problems + [f"saved model unreadable: {exc}"]
        if loaded.tables.word.rows != len(self.vocab.words) + 2 or loaded.variant != self.variant:
            problems.append("saved model does not match the vocabulary and variant")
        with open(self.model_path, "rb") as fh:
            if not self.same_as_first(fh.read(), optim.render_train_report(report).encode()):
                problems.append("model file or report differs from the first call's")
        return problems


class EvalCompare(Workload):
    """`cdrex eval --compare`: the paper's significance comparison of two
    models on a test split, run through `cli.main` as users run it."""

    # (file tag, variant, share of instances the model labels negative)
    MODELS = (("primary", "cnn+cnnchar", 0.85), ("rival", "cnn", 0.75))
    CALIBRATION_INSTANCES = 48

    def __init__(self, workdir: str, test_docs: int):
        super().__init__()
        self.test_docs = test_docs
        self.paths = {name: os.path.join(workdir, name) for name in
                      ("train.pubtator", "test.pubtator", "primary.model", "rival.model",
                       "eval.report")}

    def setup(self, seed: int) -> None:
        train_text = corpusgen.generate(corpusgen.LONG, seed, "train")
        test_text = corpusgen.generate(corpusgen.LONG, seed, "test", docs=self.test_docs)
        for name, text in (("train.pubtator", train_text), ("test.pubtator", test_text)):
            with open(self.paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        docs = corpus.parse_pubtator(train_text)
        vocab = corpus.build_vocab(docs, sample_instances(docs, 2, np.random.default_rng([seed, 2])))
        test = split_of(test_text)
        self.gold = {doc.pmid: set(doc.gold_cid) for doc in test.documents}
        self.instances_per_call = len(self.MODELS) * len(test.instances)
        for tag, variant, negative_share in self.MODELS:
            params = model.init_model(vocab, variant, Rng(seed).derive(tag))
            self._calibrate(params, test.instances[:self.CALIBRATION_INSTANCES], negative_share)
            model.save_model(params, self.paths[f"{tag}.model"])

    @staticmethod
    def _calibrate(params, instances, negative_share: float) -> None:
        """Set the output bias so the untrained model labels about
        `negative_share` of the instances negative.  Freshly initialized
        models label nearly everything alike, which would make both systems
        predict every co-occurring pair, tie on F1, and skip the bootstrap."""
        margins = []
        for inst in instances:
            p = model.forward(corpus.fit_instance(inst, params.hyper.n), params, Rng(0)).probabilities
            margins.append(math.log(p[1]) - math.log(p[0]))
        params.b1.data[0] += float(np.quantile(margins, negative_share))

    def call(self):
        argv = ["eval", "--model-in", self.paths["primary.model"],
                "--compare", self.paths["rival.model"],
                "--test", self.paths["test.pubtator"], "--train", self.paths["train.pubtator"],
                "--report", self.paths["eval.report"]]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, exit_code) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        with open(self.paths["eval.report"], "rb") as fh:
            raw = fh.read()
        lines = raw.decode("utf-8").splitlines()
        predicted: dict[str, set] = {pmid: set() for pmid in self.gold}
        for line in lines:
            if line.startswith("pair\t"):
                _, pmid, chem, dis = line.split("\t")
                predicted.setdefault(pmid, set()).add((chem, dis))
        problems = []
        expected = [f"{name} {value:.1f}" for name, value in
                    zip(("P", "R", "F1"), evaluation.prf1(self.gold, predicted))]
        if lines[:3] != expected:
            problems.append(f"report {lines[:3]} != recomputed {expected}")
        if not lines or not lines[-1].startswith("bootstrap p=") or lines[-1].startswith("bootstrap p=1.0000"):
            problems.append(f"bootstrap line {lines[-1:]}: the systems' F1 tie or no test ran")
        if not self.same_as_first(raw):
            problems.append("report differs from the first call's")
        return problems


def make(name: str, workdir: str) -> Workload:
    """The workload called `name`; sizes are documented in README.md."""
    if name == "train-cnn":
        return Train(workdir, "cnn", corpusgen.LONG, sample=64, epochs=2, dev_docs=1)
    if name == "train-lstmchar":
        return Train(workdir, "cnn+lstmchar", corpusgen.SHORT, sample=16, epochs=1, dev_docs=1)
    if name == "eval-compare":
        return EvalCompare(workdir, test_docs=2)
    raise ValueError(f"unknown workload {name!r}")
