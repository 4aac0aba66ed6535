"""In-memory span tracer that wraps fedmt's public functions from outside.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces a
function at every place it is looked up: the defining module, every fedmt
module that bound it with ``from ... import``, and module-level dict
tables such as ``nn.ACTIVATIONS``. Methods are replaced on their class.
The wrappers stay for the life of the traced process.

Each call records one span (name, start, end, parent) in flat arrays; the
spans of one traced process share a run id and are written out once, at the
end, by ``Tracer.dump``. ``summarize`` turns the arrays into per-name calls,
inclusive seconds and self seconds, where self time is a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import array
import functools
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

NN_PRIMITIVES = (
    "linear_fwd", "linear_bwd",
    "attention_fwd", "attention_bwd",
    "layer_norm_fwd", "layer_norm_bwd",
    "gelu_fwd", "gelu_bwd",
    "relu_fwd", "relu_bwd",
    "adapter_fwd", "adapter_bwd",
)

# span name -> (module, attribute). A dotted attribute names a method.
TARGETS = {
    "runner.prepare_data": ("fedmt.runner", "prepare_data"),
    "runner.warmup_backbone": ("fedmt.runner", "warmup_backbone"),
    "runner.make_assignment": ("fedmt.runner", "make_assignment"),
    "runner.evaluate_test_bleu": ("fedmt.runner", "evaluate_test_bleu"),
    "data.batches": ("fedmt.data", "batches"),
    "model.grad": ("fedmt.model", "grad"),
    "model.loss": ("fedmt.model", "loss"),
    "model.forward": ("fedmt.model", "forward"),
    "model.backward": ("fedmt.model", "backward"),
    "model.merge_batches": ("fedmt.model", "merge_batches"),
    "model.decode_greedy": ("fedmt.model", "decode_greedy"),
    "model.decode_logits": ("fedmt.model", "decode_logits"),
    **{f"nn.{name}": ("fedmt.nn", name) for name in NN_PRIMITIVES},
    "federation.local_update": ("fedmt.federation", "local_update"),
    "federation.optimizer_step": ("fedmt.federation", "_Adam.step"),
    "federation.evaluate_dev_loss": ("fedmt.federation", "evaluate_dev_loss"),
    "federation.inner_cluster_aggregate": ("fedmt.federation", "inner_cluster_aggregate"),
    "federation.ledger.record_sync": ("fedmt.federation", "CommLedger.record_sync"),
    "params.replace_values": ("fedmt.params", "NamedParamSet.replace_values"),
    "params.save_param_set": ("fedmt.params", "save_param_set"),
    "clustering.compute_gradient_feature": ("fedmt.clustering", "compute_gradient_feature"),
    "clustering.cluster_by_gradient": ("fedmt.clustering", "cluster_by_gradient"),
    "bleu.pair_scores": ("fedmt.bleu", "pair_scores"),
    "reporting.write_seed_report": ("fedmt.reporting", "write_seed_report"),
    "reporting.write_summary": ("fedmt.reporting", "write_summary"),
}

# The set-up a fresh process pays before ``fedmt run``. A traced child wraps
# these before set-up and every other target after it, so the warm-up's own
# training is not counted as run work.
SETUP_SPANS = ("runner.prepare_data", "runner.warmup_backbone")



class Tracer:
    """Records spans and counters; ``install`` wraps the targets."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_outer = array.array("b")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.counters: Counter = Counter()
        self.shapes: dict[str, Counter] = {}
        self.bindings: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._name_ids[name]

    def is_open(self, name: str) -> bool:
        name_id = self._name_ids.get(name)
        return name_id is not None and self._depth[name_id] > 0

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call. ``hook(tracer, args, kwargs)``
        runs before the call and may return a callable to run after it."""
        name_id = self._name_id(name)
        shapes = self.shapes.setdefault(name, Counter()) if name.startswith("nn.") else None
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        span_name, span_parent, span_outer = self.span_name, self.span_parent, self.span_outer
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = hook(self, args, kwargs) if hook is not None else None
            if shapes is not None:
                shapes[getattr(args[0], "shape", None)] += 1
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_outer.append(depth[name_id] == 0)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(index)
            depth[name_id] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                span_start[index] = start
                depth[name_id] -= 1
                stack.pop()
                if after is not None:
                    after()

        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets: dict, hooks=None, module_prefix: str = "fedmt"):
        """Wrap every binding of every target; returns self."""
        hooks = hooks or {}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == module_prefix or key.startswith(module_prefix + "."))]
        for name, (module_name, attr) in targets.items():
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(name, original, hooks.get(name)))
                self.bindings[name] += 1
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self.bindings[name] += 1
                    elif isinstance(value, dict):
                        self._replace_in_table(value, original, wrapped, name)
        return self

    def _replace_in_table(self, table: dict, original, wrapped, name: str) -> None:
        for key, value in list(table.items()):
            if value is original:
                new = wrapped
            elif isinstance(value, tuple) and any(v is original for v in value):
                new = tuple(wrapped if v is original else v for v in value)
            else:
                continue
            table[key] = new
            self.bindings[name] += 1

    # -- output ------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32),
            np.frombuffer(self.span_parent, dtype=np.int32),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
            np.frombuffer(self.span_outer, dtype=np.int8).astype(bool),
        )

    def dump(self, path: Path) -> None:
        """Write every span, once, after the traced work has finished."""
        name, parent, start, end, outer = self.arrays()
        np.savez_compressed(
            path, name=name, parent=parent, start=start, end=end, outer=outer,
            names=np.array(self.names), run_id=np.array(self.run_id),
        )

    def summary(self) -> dict:
        stats = summarize(self.names, *self.arrays())
        for key, counter in self.shapes.items():
            if key in stats:
                stats[key]["shapes"] = [
                    [list(shape) if shape is not None else None, count]
                    for shape, count in counter.most_common(4)
                ]
        return {
            "run_id": self.run_id,
            "spans": len(self.span_start),
            "wrapper_cost_s": wrapper_cost_s(),
            "stats": stats,
            "counters": dict(self.counters),
            "bindings": dict(self.bindings),
        }


def wrapper_cost_s(calls: int = 100_000) -> float:
    """Seconds one traced call adds around an empty function, measured here."""
    tracer = Tracer("calibration")
    traced = tracer.wrap("noop", lambda: None)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - start
    noop = lambda: None  # noqa: E731
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, wrapped - (time.perf_counter() - start)) / calls


def summarize(names, name, parent, start, end, outer) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time sums only spans marked ``outer`` (no open span of the same
    name above them), so a name nested in itself is not counted twice. Self
    time is each span's duration minus the summed durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    name = np.asarray(name)
    parent = np.asarray(parent)
    outer = np.asarray(outer, dtype=bool)
    duration = np.asarray(end) - np.asarray(start)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(duration))
    self_time = duration - child_time
    out = {}
    for name_id, label in enumerate(names):
        mine = name == name_id
        out[label] = {
            "calls": int(mine.sum()),
            "s": float(duration[mine & outer].sum()),
            "self_s": float(self_time[mine].sum()),
        }
    return out


# ---------------------------------------------------------------------------
# counters recorded at the same boundaries as the spans


def _count_grad_batch(tracer: Tracer, args, kwargs):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    tracer.counters["grad.real"] += int(batch.src_mask.sum()) + int(batch.tgt_mask.sum())
    tracer.counters["grad.slots"] += batch.src_mask.size + batch.tgt_mask.size


def _count_decode_positions(tracer: Tracer, args, kwargs):
    if tracer.is_open("model.decode_greedy"):
        tgt_in = args[3] if len(args) > 3 else kwargs["tgt_in"]
        tracer.counters["model.decode_logits.positions"] += tgt_in.size


def _count_ledger(tracer: Tracer, args, kwargs):
    ledger = args[0]
    before = len(ledger.entries)

    def after():
        added = ledger.entries[before:]
        tracer.counters["federation.ledger.entries"] += len(added)
        tracer.counters["federation.ledger.bytes"] += sum(e.bytes for e in added)

    return after


HOOKS = {
    "model.grad": _count_grad_batch,
    "model.decode_logits": _count_decode_positions,
    "federation.ledger.record_sync": _count_ledger,
}
