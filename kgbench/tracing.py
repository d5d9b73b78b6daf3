"""Span tracing of kgar from outside: wraps public callables at their
import sites for one traced pass and restores every one afterwards.

A span is (name, start, end, parent, run id); spans stay in memory and
are written out when the run ends. Backward closures are timed by
wrapping ``Tape.record``: each closure recorded while span ``S`` is open
runs, during ``Tape.backward``, inside a span named ``S_bwd``. Nothing in
kgar itself is edited.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
import types

import kgar.cli
import kgar.data
import kgar.datasets
import kgar.decoders
import kgar.encoder
import kgar.evaluation
import kgar.snapshot
import kgar.tensor
import kgar.training

BWD = "_bwd"


class Tracer:
    """In-memory span recorder; spans nest on one stack (kgar is
    single-threaded, so there is no cross-thread parenting)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of "
                               "order")
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def rename(self, index, name):
        self.spans[index][0] = name

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def current_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else "root"

    def wrap(self, name, fn):
        """`fn` inside a span; `name` is a string or a function of the
        call's arguments."""
        namer = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            index = self.open(namer(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def wrap_class(self, name, cls):
        """A subclass whose constructor runs inside a span, so isinstance
        checks against the patched name keep working."""
        tracer = self

        def __init__(self, *args, **kwargs):
            with tracer.span(name):
                cls.__init__(self, *args, **kwargs)

        return type(cls.__name__, (cls,),
                    {"__init__": __init__, "__module__": cls.__module__})

    def write(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, **(extra or {})}, fh)


class NullTracer:
    """Stands in for a Tracer in untraced passes: benchmark-side spans
    cost one call and record nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def open(self, name):
        return None

    def close(self, index):
        pass

    def rename(self, index, name):
        pass


def _conv_name():
    sig = inspect.signature(kgar.encoder.conv_layer_forward)

    def name(*args, **kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        return f"encoder.conv_l{bound.get('layer')}_{bound['direction']}"

    return name


def _tensor_proxy(tracer):
    """kgar.tensor as seen from kgar.encoder, with the encoder's dense
    ops wrapped; other importers of kgar.tensor are unaffected."""
    proxy = types.ModuleType(kgar.tensor.__name__)
    proxy.__dict__.update(vars(kgar.tensor))
    for attr, name in (("matmul", "encoder.projections"),
                       ("leaky_relu", "encoder.edge_scores"),
                       ("segment_softmax", "encoder.attention_softmax")):
        if hasattr(kgar.tensor, attr):
            setattr(proxy, attr, tracer.wrap(name, getattr(kgar.tensor, attr)))
    return proxy


def _traced_record(tracer, record):
    def traced_record(tape, fn):
        name = tracer.current_name() + BWD

        def timed():
            index = tracer.open(name)
            try:
                return fn()
            finally:
                tracer.close(index)

        return record(tape, timed)

    return traced_record


def targets(tracer):
    """(owner, attribute, factory) for every callable the traced pass
    wraps; a factory maps the original to its replacement."""
    wrap, wrap_class = tracer.wrap, tracer.wrap_class
    return [
        (kgar.datasets, "preprocess",
         lambda f: wrap("datasets.preprocess", f)),
        (kgar.datasets, "write_bundle",
         lambda f: wrap("datasets.write_bundle", f)),
        (kgar.datasets, "load_bundle",
         lambda f: wrap("datasets.load_bundle", f)),
        (kgar.datasets, "KnowledgeGraph",
         lambda c: wrap_class("data.graph_build", c)),
        (kgar.data.KnowledgeGraph, "plan", lambda f: wrap("data.plan", f)),
        (kgar.snapshot, "save_snapshot", lambda f: wrap("snapshot.save", f)),
        (kgar.cli, "load_snapshot", lambda f: wrap("snapshot.load", f)),
        (kgar.evaluation, "FilterIndex",
         lambda c: wrap_class("evaluation.filter_build", c)),
        (kgar.evaluation, "evaluate_ranking",
         lambda f: wrap("evaluation.rank", f)),
        (kgar.training, "encode", lambda f: wrap("encoder.encode", f)),
        (kgar.encoder, "conv_layer_forward", lambda f: wrap(_conv_name(), f)),
        (kgar.encoder, "edge_inner_product",
         lambda f: wrap("encoder.edge_scores", f)),
        (kgar.encoder, "attention_relational_aggregate",
         lambda f: wrap("encoder.aggregate", f)),
        (kgar.encoder, "gated_neighbor_sum",
         lambda f: wrap("encoder.fusion", f)),
        (kgar.encoder, "T", lambda m: _tensor_proxy(tracer)),
        (kgar.decoders, "sample_negatives",
         lambda f: wrap("decoders.sample_negatives", f)),
        (kgar.decoders, "score_triples", lambda f: wrap("decoders.score", f)),
        (kgar.tensor, "adam_step", lambda f: wrap("tensor.optimizer", f)),
        (kgar.tensor.Tape, "backward", lambda f: wrap("tensor.backward", f)),
        (kgar.tensor.Tape, "record", lambda f: _traced_record(tracer, f)),
    ]


@contextlib.contextmanager
def installed(tracer):
    """Patch every target for the duration of the block.

    A target missing from kgar raises AttributeError before anything is
    patched: a renamed callable breaks the traced run instead of reading
    as a layer that takes no time. Originals are put back in reverse
    order, also on error.
    """
    patches = []
    for owner, attr, factory in targets(tracer):
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            raise AttributeError(f"kgbench traces {owner.__name__}.{attr}, "
                                 "which kgar no longer has")
        patches.append((owner, attr, original, factory))
    saved = []
    try:
        for owner, attr, original, factory in patches:
            setattr(owner, attr, factory(original))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def descendants_by_root(spans, root_indices):
    """Map each root index to the indices of all spans beneath it."""
    roots = set(root_indices)
    owner = {}
    groups = {r: [] for r in root_indices}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent in owner:
            owner[i] = owner[parent]
        elif parent in roots:
            owner[i] = parent
        else:
            continue
        groups[owner[i]].append(i)
    return groups
