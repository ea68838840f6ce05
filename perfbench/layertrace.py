"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public functions and public methods of each
layer module with wrappers that record a span (name, start, end, parent span,
query id) and count work at the boundary; ``remove()`` puts every original
back. A module-level function is patched in every ``cutstack`` module that
bound it by name (``products``, ``vl`` and ``cli`` import ``tower`` functions
that way), so no call slips past the wrapper. No program file changes.

Left unwrapped, so their cost lands in the caller's self time:
- the stage-data accessors of the families (``ensure``, ``height``,
  ``offsets_between`` ...), which the engine calls at every stage;
- O(1) run-set accessors (``bounds``, ``LevelSet.min_index`` ...);
- generator functions, whose work happens in the consumer;
- ``naive`` (an oracle used only by the checker), ``measure`` and ``errors``.

Spans are kept in arrays and written out when the run ends. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from collections.abc import Iterator

import numpy as np

LAYERS = ("runs", "engine", "tower", "products", "vl", "afs4", "synthesis",
          "familyfile", "cli")

ACCESSORS = frozenset({
    "ensure", "height", "marker", "params", "cuts_between", "offsets_between",
    "spacer_ranges_between", "level_width", "stack_height",
    "bounds", "is_empty", "min_index", "max_index", "min", "max",
    "constraint_fraction",
})

# Private methods that are a layer's real entry point: stage materialization
# of the four-cut and synthesized families runs here, behind ``ensure``.
EXTRA = {"afs4": ("AfsParams._stage_params",),
         "synthesis": ("SynthesizedParams._stage_params",)}

ENGINE_WALKS = ("pair_diff_counts", "multi_diff_counts")


def _run_len(x) -> int:
    runs = getattr(x, "runs", x)
    if isinstance(runs, tuple) and (not runs or isinstance(runs[0], tuple)):
        return len(runs)
    return 0


class _Counted:
    """Iterator that counts the items a run function consumes."""

    __slots__ = ("it", "n")

    def __init__(self, it):
        self.it = iter(it)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self.it)
        self.n += 1
        return item


class _Hook:
    __slots__ = ("before", "after")

    def __init__(self, before, after):
        self.before = before
        self.after = after


class Tracer:
    def __init__(self):
        self.names: list[str] = []       # span name id -> "layer.qualname"
        self.layer_of: list[str] = []    # span name id -> layer
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("l")
        self.query = array("l")
        self.stack = [-1]
        self.qid = -1
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(layer, owner, attribute, original, qualname) for every wrapped callable."""
        out = []
        for layer in LAYERS:
            mod = sys.modules["cutstack." + layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in ACCESSORS:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not inspect.isgeneratorfunction(obj):
                    out.append((layer, mod, attr, obj, attr))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, mobj in vars(obj).items():
                        if mattr.startswith("_") or mattr in ACCESSORS:
                            continue
                        fn = mobj.__func__ if isinstance(mobj, (classmethod, staticmethod)) \
                            else mobj
                        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                            out.append((layer, obj, mattr, mobj, f"{attr}.{mattr}"))
            for qual in EXTRA.get(layer, ()):
                cls_name, mattr = qual.split(".")
                cls = getattr(mod, cls_name)
                out.append((layer, cls, mattr, vars(cls)[mattr], qual))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cutstack" or n.startswith("cutstack."))]
        for layer, owner, attr, orig, qual in self._targets():
            wrapped = self._wrap(orig, layer, qual)
            if inspect.ismodule(owner):
                # patch every module that bound this function by name
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, name, orig))
                            setattr(mod, name, wrapped)
            else:
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrap(self, orig, layer: str, qual: str):
        if isinstance(orig, (classmethod, staticmethod)):
            inner = self._wrap(orig.__func__, layer, qual)
            return type(orig)(inner)
        fid = len(self.names)
        self.names.append(f"{layer}.{qual}")
        self.layer_of.append(layer)
        hook = self._hook_for(layer, qual)
        before, after = hook.before, hook.after
        clock = time.perf_counter
        stack, start, end = self.stack, self.start, self.end
        name_a, parent_a, query_a = self.name, self.parent, self.query
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent = stack[-1]
            name_a.append(fid)
            parent_a.append(parent)
            query_a.append(tracer.qid)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            if before is not None:
                args = before(args)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            after(args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", qual)
        wrapper.__qualname__ = getattr(orig, "__qualname__", qual)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    # -- counters at the boundary -------------------------------------------

    def _hook_for(self, layer: str, qual: str):
        c, mx, names, name_a = self.counts, self.maxima, self.names, self.name

        def parent_is(parent, qualname):
            return parent >= 0 and names[name_a[parent]] == qualname

        if layer == "runs":
            def before(args):
                # generators passed to normalize/from_indices are counted as consumed
                if any(isinstance(a, Iterator) for a in args):
                    return tuple(_Counted(a) if isinstance(a, Iterator) else a
                                 for a in args)
                return args

            def after(args, kwargs, result, parent):
                c["runs.calls"] += 1
                n_in = 0
                for a in args:
                    if isinstance(a, _Counted):
                        n_in += a.n
                    elif isinstance(a, list):
                        n_in += len(a)
                    else:
                        n_in += _run_len(a)
                c["runs.runs_in"] += n_in
                c["runs.runs_out"] += _run_len(result)
            return _Hook(before, after)

        if layer == "engine" and qual in ENGINE_WALKS:
            def after(args, kwargs, result, parent):
                n0, M = args[1], args[2]
                c["engine.calls"] += 1
                c["engine.walks"] += 1
                c["engine.stages_walked"] += M - n0
                c["engine.states_out"] += len(result)
                mx["engine.lift_stage_max"] = max(mx["engine.lift_stage_max"], M)
        elif layer == "tower" and qual == "return_support":
            def after(args, kwargs, result, parent):
                c["tower.calls"] += 1
                if parent_is(parent, "products.lambda_set"):
                    c["products.support_runs"] += len(result.runs)
        elif layer == "tower" and qual == "decompose":
            def after(args, kwargs, result, parent):
                c["tower.calls"] += 1
                c["tower.lift_runs_out"] += len(result.runs)
        elif layer == "products" and qual == "lambda_set":
            def after(args, kwargs, result, parent):
                c["products.calls"] += 1
                c["products.result_runs"] += len(result.runs)
        elif layer == "vl" and qual == "WitnessPair.product_with_shifted_A":
            def after(args, kwargs, result, parent):
                c["vl.calls"] += 1
                stages = inspect.unwrap(type(args[0]).subtraction_stages)(args[0])
                c["vl.ie_terms"] += 1 << len(stages)
                if parent_is(parent, "vl.witness_violations"):
                    c["vl.candidates"] += 1
        elif layer == "cli" and qual == "main":
            def after(args, kwargs, result, parent):
                c["cli.commands"] += 1
        elif layer == "familyfile" and qual == "csv_text":
            def after(args, kwargs, result, parent):
                c["familyfile.calls"] += 1
                c["cli.rows_out"] += len(args[1])
        elif layer == "familyfile" and qual == "load_family":
            def after(args, kwargs, result, parent):
                c["familyfile.calls"] += 1
                c["familyfile.loads"] += 1
        else:
            key = f"{layer}.calls"

            def after(args, kwargs, result, parent):
                c[key] += 1
        return _Hook(None, after)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        return end - start, parent, name

    def self_times(self) -> tuple[dict, float]:
        """Per-layer self time, and the summed duration of top-level spans."""
        dur, parent, name = self._arrays()
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child
        per_name = np.bincount(name, weights=self_t, minlength=len(self.names))
        layers = defaultdict(float)
        for fid, t in enumerate(per_name):
            layers[self.layer_of[fid]] += float(t)
        return dict(layers), float(dur[~nested].sum())

    def count_under(self, layer_name: str, target_quals: tuple[str, ...]) -> int:
        """Spans named in target_quals that have an ancestor in layer_name."""
        _, parent, name = self._arrays()
        in_layer = [lay == layer_name for lay in self.layer_of]
        targets = {i for i, q in enumerate(self.names) if q in target_quals}
        under = bytearray(len(parent))
        hits = 0
        # parents are allocated before their children, so one forward pass works
        for i, p in enumerate(parent.tolist()):
            if p >= 0 and (under[p] or in_layer[name[p]]):
                under[i] = 1
                if name[i] in targets:
                    hits += 1
        return hits

    def write(self, path) -> None:
        """All spans as a NumPy .npz: ``names`` (span name by id), and per span
        its name id, start time, duration, parent span index (-1 at top level)
        and query id."""
        dur, parent, name = self._arrays()
        np.savez(path, names=np.array(self.names), name=name.astype(np.uint16),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 duration=dur.astype(np.float32), parent=parent.astype(np.int32),
                 query=np.frombuffer(self.query, dtype=np.int64).astype(np.int32))
