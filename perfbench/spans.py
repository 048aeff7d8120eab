"""Outside-in tracing of qcat: wrap each layer's public functions in spans,
keep the spans in memory, and reduce them to per-layer metrics.

Nothing under src/ is edited.  `traced()` replaces every public
function of the layer modules by a span-recording wrapper, and rebinds every
name that refers to the original in any loaded `qcat` or `perfbench` module,
because `from .morphisms import tensor` gives each importing module its own
binding.  Three methods are wrapped on their classes: `Engine.split` and
`Engine.obj_offsets` only count calls (they run ~10^5 times per pass and
their time stays with their caller, always a `morphisms` function), and
`AlgebraPresentation.minimal_idempotents` records a span.

A span's self time is its duration minus the time its child spans cover.  A
layer's self time is the sum over its spans.  The pass itself is a span of
the `bench` layer, so time spent in no wrapped function (the end-of-pass
cycle collection among it) shows up as `trace.uncovered_s`, and the layer
self times plus that sum to the pass time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Layers are the qcat modules; ROADMAP numbers them L1 (category) to L6 (cli),
# with frobenius and decompose together as L3.
LAYERS = ("category", "morphisms", "frobenius", "decompose", "braided", "modules", "cli")

# Label helpers and the engine accessor do no work of their own but run tens
# of thousands of times per pass; a span on them would only add overhead.
# Their cost stays in the self time of the calling layer.
UNWRAPPED = {"category.pair_label", "category.split_label", "morphisms.engine"}

# Inclusive metrics: the time of the outermost span among the named functions.
INCLUSIVE = {
    "category.deligne_s": ("category.deligne_product",),
    "category.validate_s": ("category.validate_category",),
    "category.load_s": ("category.load_category", "category.build_category"),
    "morphisms.tensor_s": ("morphisms.tensor",),
    "morphisms.braiding_s": ("morphisms.braiding", "morphisms.word_braiding"),
    "morphisms.trace_s": ("morphisms.trace", "morphisms.left_trace", "morphisms.right_trace"),
    "frobenius.solve_s": ("frobenius.solve_morphism_space",),
    "frobenius.idempotents_s": ("frobenius.AlgebraPresentation.minimal_idempotents",),
    "frobenius.equivalent_s": ("frobenius.qsystems_equivalent",),
    "decompose.reduce_s": ("decompose.reduced_qsystem",),
    "braided.canonical_s": ("braided.canonical_qsystem",),
    "braided.full_centre_s": ("braided.full_centre",),
    "braided.centre_projections_s": ("braided.centre_projections",),
    "modules.enumerate_s": ("modules.enumerate_modules", "modules.enumerate_bimodules"),
    "modules.r_lift_s": ("modules.r_lift",),
    "modules.d_intertwiner_s": ("modules.d_intertwiner",),
}

CALLS = {
    "category.deligne_calls": "category.deligne_product",
    "morphisms.tensor_calls": "morphisms.tensor",
    "morphisms.compose_calls": "morphisms.compose",
    "frobenius.solve_calls": "frobenius.solve_morphism_space",
}

SOLVE = "frobenius.solve_morphism_space"
MIN_IDEMPOTENTS = "frobenius.AlgebraPresentation.minimal_idempotents"
BOUNDARY = "modules.boundary_conditions"
HOM_BASIS = "morphisms.hom_basis"

# name -> unit for every per-layer metric, in report order.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in INCLUSIVE},
    **{name: "count" for name in CALLS},
    "morphisms.obj_offsets_calls": "count",
    "morphisms.split_calls": "count",
    "morphisms.split_miss_ratio": "ratio",
    "morphisms.max_sector_dim": "count",
    "frobenius.solve_tensor_calls": "count",
    "frobenius.hom_dim_max": "count",
    "modules.oracle_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_s": "s",
}


class Recorder:
    """Spans in start order as parallel arrays, plus the engine counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.hom_dims: dict[int, int] = {}  # hom_basis span -> basis size
        self.obj_offsets_calls = 0
        self.split_calls = 0
        self.split_misses = 0
        self.max_sector_dim = 0

    def intern(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def enter(self, sid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(sid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def exit(self) -> None:
        t = time.perf_counter()
        self.end[self.stack.pop()] = t

    @contextmanager
    def span(self, name: str):
        self.enter(self.intern(name))
        try:
            yield
        finally:
            self.exit()


def _span_wrapper(rec: Recorder, fn, name: str):
    sid = rec.intern(name)
    keep_size = name == HOM_BASIS

    def wrapper(*args, **kwargs):
        i = rec.enter(sid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit()
        if keep_size:
            rec.hom_dims[i] = len(out)
        return out

    return functools.wraps(fn)(wrapper)


def _engine_wrappers(rec: Recorder, split, obj_offsets):
    def split_counted(self, w1, w2):
        rec.split_calls += 1
        if (w1, w2) not in self._split:
            rec.split_misses += 1
        return split(self, w1, w2)

    def obj_offsets_counted(self, x, c):
        rec.obj_offsets_calls += 1
        offs = obj_offsets(self, x, c)
        if offs[-1] > rec.max_sector_dim:
            rec.max_sector_dim = offs[-1]
        return offs

    return split_counted, obj_offsets_counted


@contextmanager
def traced():
    """Install the wrappers for the duration of the block and yield the
    Recorder they write to; the program is restored on exit."""
    rec = Recorder()
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qcat.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or f"{layer}.{attr}" in UNWRAPPED
                ):
                    continue
                replace[id(fn)] = _span_wrapper(rec, fn, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qcat" or name.startswith(("qcat.", "perfbench"))):
                continue
            for attr, val in list(vars(mod).items()):
                new = replace.get(id(val))
                if new is not None and new.__wrapped__ is val:
                    patch(mod, attr, new)
        from qcat.frobenius import AlgebraPresentation
        from qcat.morphisms import Engine

        split, offs = _engine_wrappers(rec, Engine.split, Engine.obj_offsets)
        patch(Engine, "split", split)
        patch(Engine, "obj_offsets", offs)
        patch(
            AlgebraPresentation,
            "minimal_idempotents",
            _span_wrapper(rec, AlgebraPresentation.minimal_idempotents, MIN_IDEMPOTENTS),
        )
        yield rec
    finally:
        for owner, attr, old in reversed(patched):
            setattr(owner, attr, old)


def _durations(rec: Recorder) -> tuple[list[float], list[float]]:
    """Each span's duration and the time its child spans cover."""
    n = len(rec.name_id)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if rec.parent[i] >= 0:
            child[rec.parent[i]] += dur[i]
    return dur, child


def pass_metrics(rec: Recorder) -> dict[str, float]:
    """Reduce one traced pass (root span: the pass) to the per-layer metrics,
    except trace.overhead_ratio, which needs the untraced passes."""
    name = [rec.names[sid] for sid in rec.name_id]
    parent = rec.parent
    dur, child = _durations(rec)
    groups = list(INCLUSIVE)
    group_of = {fn: g for g, metric in enumerate(groups) for fn in INCLUSIVE[metric]}
    solve_bit = 1 << groups.index("frobenius.solve_s")

    self_s = dict.fromkeys((*LAYERS, "bench"), 0.0)
    inclusive = [0.0] * len(groups)
    open_groups = [0] * len(name)  # bit g set: inside a span of group g
    solve_tensor = hom_dim_max = 0
    oracle = 0.0
    for i, fn in enumerate(name):
        p = parent[i]
        above = open_groups[p] if p >= 0 else 0
        caller = name[p] if p >= 0 else None
        g = group_of.get(fn)
        open_groups[i] = above if g is None else above | (1 << g)
        if g is not None and not above >> g & 1:
            inclusive[g] += dur[i]
        self_s[fn.split(".", 1)[0]] += dur[i] - child[i]
        if fn == "morphisms.tensor" and above & solve_bit:
            solve_tensor += 1
        elif fn == HOM_BASIS and caller == SOLVE:
            hom_dim_max = max(hom_dim_max, rec.hom_dims[i])
        elif fn == MIN_IDEMPOTENTS and caller == BOUNDARY:
            oracle += dur[i]

    calls = Counter(name)
    out: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update(zip(groups, inclusive))
    out.update((metric, calls[fn]) for metric, fn in CALLS.items())
    out.update({
        "morphisms.obj_offsets_calls": rec.obj_offsets_calls,
        "morphisms.split_calls": rec.split_calls,
        "morphisms.split_miss_ratio": rec.split_misses / max(rec.split_calls, 1),
        "morphisms.max_sector_dim": rec.max_sector_dim,
        "frobenius.solve_tensor_calls": solve_tensor,
        "frobenius.hom_dim_max": hom_dim_max,
        "modules.oracle_s": oracle,
        "trace.uncovered_s": self_s["bench"],
        "pass_s": sum(d for d, p in zip(dur, parent) if p < 0),
    })
    return out


def span_tree(recs: list[Recorder]) -> dict:
    """Aggregate spans by call path: path -> [calls, total_s, self_s]."""
    tree: dict[str, list] = {}
    for rec in recs:
        dur, child = _durations(rec)
        path: list[str] = []
        for i, sid in enumerate(rec.name_id):
            p = rec.parent[i]
            path.append(f"{path[p]}/{rec.names[sid]}" if p >= 0 else rec.names[sid])
            node = tree.setdefault(path[i], [0, 0.0, 0.0])
            node[0] += 1
            node[1] += dur[i]
            node[2] += dur[i] - child[i]
    return tree
