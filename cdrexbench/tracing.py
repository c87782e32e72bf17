"""Traced runs: spans and counters recorded around cdrex's public functions.

The wrappers live here, in the benchmark, and are installed only for a
traced run: module functions are replaced on every cdrex module that holds
them (so `from .encoders import unk_replace` in optim is traced too), and
methods are replaced on their class.  `uninstall` puts every original
back.

Each layer-boundary function records a span (id, parent id, name, start,
end) that shares the tracer's run id; spans stay in memory and are written
out once, at the end.  The tensor operations are called hundreds of
thousands of times per minibatch, so they keep aggregate call counts and
times instead of one span each.  Every wrapper also charges its duration
to its caller, so self time per module (a call's duration minus the time
of the wrapped calls inside it) sums without double counting.
"""

from __future__ import annotations

import gc
import itertools
import json
import time
import uuid
from collections import defaultdict

# Functions wrapped with a span, by module.
SPANS = {
    "corpus": ("parse_pubtator", "build_instances", "build_vocab"),
    "encoders": ("build_input_matrix", "encode_chars", "unk_replace"),
    "tensor": ("graph_nodes",),
    "model": ("init_model", "loss", "forward", "save_model", "load_model"),
    "optim": ("train", "nadam_step", "dev_f1", "predict_pairs"),
    "evaluation": ("aggregate_document", "evaluate", "bootstrap_test"),
    "cli": ("main",),
}
# Methods wrapped with a span: (module, class, method).
METHOD_SPANS = (("tensor", "Tensor", "backward"), ("rng", "Rng", "shuffle"))
# Tensor operations: aggregate calls and seconds, no spans.
OPS = ("conv1d_valid", "gather", "concat", "stack_rows", "matmul", "add", "mul", "scale",
       "relu", "tanh", "sigmoid", "row", "slice_last", "max_over_time", "softmax",
       "dropout", "nll_loss", "sum_all")
# Methods whose calls are counted but not timed: (module, class, method).
COUNTED = (("rng", "Rng", "random"), ("rng", "Rng", "fill_uniform"))
MODULES = ("corpus", "encoders", "tensor", "model", "optim", "evaluation", "rng", "cli")
# Spans inside which the distinct character-encoder inputs are counted:
# one minibatch loss, or one split at inference.
_FORM_SCOPES = ("model.loss", "optim.predict_pairs")

# Every per-layer metric a traced run reports, with its unit.  Times and
# counts are per measured call of the workload.
METRICS = {
    "corpus.parse_s": "s",
    "corpus.build_instances_s": "s",
    "corpus.build_instances_calls": "count",
    "corpus.instances": "count",
    "corpus.build_vocab_s": "s",
    "encoders.build_input_matrix_s": "s",
    "encoders.build_input_matrix_calls": "count",
    "encoders.encode_chars_s": "s",
    "encoders.encode_chars_calls": "count",
    "encoders.unk_replace_s": "s",
    "encoders.char_encode_useful_ratio": "ratio",
    "tensor.backward_s": "s",
    "tensor.backward_calls": "count",
    "tensor.graph_nodes_s": "s",
    "tensor.nodes_per_backward": "count",
    **{f"tensor.op.{op}.{kind}": unit for op in OPS for kind, unit in (("calls", "count"), ("s", "s"))},
    "runtime.gc_pause_s": "s",
    "runtime.gc_collections": "count",
    "model.init_model_s": "s",
    "model.loss_s": "s",
    "model.loss_calls": "count",
    "model.forward_s": "s",
    "model.forward_calls": "count",
    "model.save_model_s": "s",
    "model.load_model_s": "s",
    "optim.step_ms.p50": "ms",
    "optim.step_ms.p90": "ms",
    "optim.nadam_step_s": "s",
    "optim.nadam_step_calls": "count",
    "optim.dev_f1_s": "s",
    "optim.predict_pairs_s": "s",
    "optim.train_s": "s",
    "evaluation.aggregate_document_s": "s",
    "evaluation.aggregate_document_calls": "count",
    "evaluation.evaluate_s": "s",
    "evaluation.bootstrap_test_s": "s",
    "rng.random_calls": "count",
    "rng.fill_uniform_calls": "count",
    "rng.shuffle_s": "s",
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Metric name -> traced function whose total seconds or calls it reports.
_TIMES = {
    "corpus.parse_s": "corpus.parse_pubtator",
    "corpus.build_instances_s": "corpus.build_instances",
    "corpus.build_vocab_s": "corpus.build_vocab",
    "encoders.build_input_matrix_s": "encoders.build_input_matrix",
    "encoders.encode_chars_s": "encoders.encode_chars",
    "encoders.unk_replace_s": "encoders.unk_replace",
    "tensor.backward_s": "tensor.Tensor.backward",
    "tensor.graph_nodes_s": "tensor.graph_nodes",
    "model.init_model_s": "model.init_model",
    "model.loss_s": "model.loss",
    "model.forward_s": "model.forward",
    "model.save_model_s": "model.save_model",
    "model.load_model_s": "model.load_model",
    "optim.nadam_step_s": "optim.nadam_step",
    "optim.dev_f1_s": "optim.dev_f1",
    "optim.predict_pairs_s": "optim.predict_pairs",
    "optim.train_s": "optim.train",
    "evaluation.aggregate_document_s": "evaluation.aggregate_document",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "evaluation.bootstrap_test_s": "evaluation.bootstrap_test",
    "rng.shuffle_s": "rng.Rng.shuffle",
    **{f"tensor.op.{op}.s": f"tensor.{op}" for op in OPS},
}
_CALLS = {
    "corpus.build_instances_calls": "corpus.build_instances",
    "encoders.build_input_matrix_calls": "encoders.build_input_matrix",
    "encoders.encode_chars_calls": "encoders.encode_chars",
    "tensor.backward_calls": "tensor.Tensor.backward",
    "model.loss_calls": "model.loss",
    "model.forward_calls": "model.forward",
    "optim.nadam_step_calls": "optim.nadam_step",
    "evaluation.aggregate_document_calls": "evaluation.aggregate_document",
    "rng.random_calls": "rng.Rng.random",
    "rng.fill_uniform_calls": "rng.Rng.fill_uniform",
    **{f"tensor.op.{op}.calls": f"tensor.{op}" for op in OPS},
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Spans and counters for one traced run over the cdrex package."""

    def __init__(self, package):
        self.package = package
        self.run_id = uuid.uuid4().hex
        self.spans: list[tuple] = []        # (id, parent id, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.steps_ms: list[float] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._ids = itertools.count(1)
        self._stack: list[list] = []         # open frames: [span id, child seconds]
        self._forms: list[set] = []
        self._step_start = 0.0
        self._gc_start = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: getattr(self.package, name) for name in MODULES}
        for module, names in SPANS.items():
            for name in names:
                self._patch_function(mods, module, name, self._timed(f"{module}.{name}", module, True))
        for name in OPS:
            self._patch_function(mods, "tensor", name, self._timed(f"tensor.{name}", "tensor", False))
        for module, cls, name in METHOD_SPANS:
            self._patch_method(getattr(mods[module], cls), name,
                               self._timed(f"{module}.{cls}.{name}", module, True))
        for module, cls, name in COUNTED:
            self._patch_method(getattr(mods[module], cls), name,
                               self._counted(f"{module}.{cls}.{name}"))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_function(self, mods, module: str, name: str, make) -> None:
        original = getattr(mods[module], name)
        wrapper = make(original)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, name: str, make) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, make(original))

    # -- wrappers ---------------------------------------------------------

    def _timed(self, key: str, module: str, record: bool):
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        enter, leave = self._enter_hook(key), self._leave_hook(key)

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = [next(ids), 0.0]
                parent = stack[-1] if stack else None
                stack.append(frame)
                if enter:
                    enter(args)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    duration = t1 - t0
                    calls[key] += 1
                    seconds[key] += duration
                    self_seconds[module] += duration - frame[1]
                    if parent is not None:
                        parent[1] += duration
                    if record:
                        spans.append((frame[0], parent[0] if parent else None, key, t0, t1))
                if leave:
                    leave(args, result, t1)
                return result
            return wrapper
        return make

    def _counted(self, key: str):
        calls = self.calls

        def make(fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _enter_hook(self, key: str):
        if key == "model.loss":
            def enter(args):
                self._step_start = time.perf_counter()
                self._forms.append(set())
            return enter
        if key == "optim.predict_pairs":
            return lambda args: self._forms.append(set())
        if key == "encoders.encode_chars":
            return lambda args: self._forms[-1].add(args[0]) if self._forms else None
        return None

    def _leave_hook(self, key: str):
        if key in _FORM_SCOPES:
            return lambda args, result, t1: self._count("encoders.char_distinct_forms",
                                                        len(self._forms.pop()))
        if key == "corpus.build_instances":
            return lambda args, result, t1: self._count("corpus.instances", len(result))
        if key == "tensor.graph_nodes":
            return lambda args, result, t1: self._count("tensor.graph_nodes", len(result))
        if key == "optim.nadam_step":
            # One minibatch step: from the start of its loss to the end of
            # its Nadam update, backward included.
            return lambda args, result, t1: self.steps_ms.append(1e3 * (t1 - self._step_start))
        return None

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- results ----------------------------------------------------------

    def metrics(self, traced_calls: int, overhead_s: float, untraced_s: float) -> dict[str, float]:
        """Every entry of METRICS, per traced call of the workload."""
        per = 1.0 / traced_calls
        out = {name: per * self.seconds[key] for name, key in _TIMES.items()}
        out.update({name: per * self.calls[key] for name, key in _CALLS.items()})
        out.update({f"{module}.self_s": per * self.self_seconds[module] for module in MODULES})
        encode_calls = self.calls["encoders.encode_chars"]
        backward_calls = self.calls["tensor.Tensor.backward"]
        out.update({
            "corpus.instances": per * self.counts["corpus.instances"],
            "encoders.char_encode_useful_ratio":
                self.counts["encoders.char_distinct_forms"] / encode_calls if encode_calls else 0.0,
            "tensor.nodes_per_backward":
                self.counts["tensor.graph_nodes"] / backward_calls if backward_calls else 0.0,
            "runtime.gc_pause_s": per * self.gc_pause_s,
            "runtime.gc_collections": per * self.gc_collections,
            "optim.step_ms.p50": percentile(self.steps_ms, 50),
            "optim.step_ms.p90": percentile(self.steps_ms, 90),
            "trace.overhead_s": overhead_s,
            "trace.overhead_ratio": overhead_s / untraced_s,
        })
        if set(out) != set(METRICS):
            raise RuntimeError(f"traced metrics out of step with METRICS: {set(out) ^ set(METRICS)}")
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        base = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"run": self.run_id, "span": span_id, "parent": parent,
                                     "name": name, "start": t0 - base, "end": t1 - base}) + "\n")
