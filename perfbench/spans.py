"""Span tracing of attk2's layers from outside the package.

`Tracer.install` replaces the public functions and methods of each layer
module with wrappers that record one span per call: the callee's name, start
and end (perf_counter_ns), the enclosing span and the benchmark's current
operation id. Spans live in typed arrays until the run ends and
`Tracer.dump` writes them out.

Limits of tracing from outside the package:

* only names looked up through the module or class at call time are seen;
  a function imported by name into another module (`from .io import
  unescape_field`) keeps pointing at the original;
* private helpers (leading underscore) are not wrapped, so their time counts
  as self time of the public caller; `K2Tree` traversals inline their rank
  computations, which therefore count as `k2`, not `bits`;
* a bound method cached before `install` (as `StaticRunner.__init__` does
  with the id maps) bypasses the wrapper, so install before building any
  store or runner;
* each wrapper adds roughly a microsecond, most of it charged to the caller's
  self time; `trace.slowdown` reports the total effect.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

#: The attk2 modules treated as layers, in the order reports list them.
LAYERS = (
    "queries",
    "graph",
    "schema",
    "attrstore",
    "k2",
    "multiedge",
    "bits",
    "dyngraph",
    "io",
    "cli",
)

_K2_TRAVERSALS = {
    f"k2.{cls}.{m}"
    for cls in ("K2Tree", "DynK2Tree")
    for m in ("row_leaves", "col_leaves", "range", "range_leaves", "row_neighbors", "col_neighbors")
}
_IDMAP_CALLS = {"graph.IdMap.internal", "graph.IdMap.external"}
_LABEL_FILTERS = {
    "dyngraph.DynAttK2Graph.neighbors",
    "dyngraph.DynAttK2Graph.related",
    "dyngraph.DynAttK2Graph.select",
}
_FILTERED_SOURCES = {
    "multiedge.DynMultiEdge.neighbor_cols",
    "multiedge.DynMultiEdge.neighbors_with_edges",
    "attrstore.DynDenseAttribute.select",
}


class Tracer:
    """In-memory span recorder; `op_id` is set by the benchmark per operation
    and is -1 outside the timed window."""

    def __init__(self):
        self.names: list[str] = []
        self._name_of: dict[str, int] = {}
        self.extra: dict = {}  # free-form figures saved alongside the spans
        self.name_ix = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.size = array("l")  # len() of a list result, else -1
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self._replaced: list[tuple] = []  # (owner, name, original) for uninstall

    # -- recording ------------------------------------------------------------

    def install(self):
        """Wrap every public function and method defined in the layer modules."""
        for layer in LAYERS:
            mod = importlib.import_module(f"attk2.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replace(mod, name, self._wrap(obj, f"{layer}.{name}"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}")

    def uninstall(self):
        """Put back every function and method that `install` replaced."""
        while self._replaced:
            owner, name, original = self._replaced.pop()
            setattr(owner, name, original)

    def _replace(self, owner, name: str, wrapper):
        self._replaced.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap_class(self, cls, prefix: str):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                self._replace(cls, attr, self._wrap(member, qual))
            elif isinstance(member, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(member.__func__, qual)))
            elif isinstance(member, property) and member.fget is not None:
                self._replace(
                    cls,
                    attr,
                    property(self._wrap(member.fget, qual), member.fset, member.fdel, member.__doc__),
                )

    def _name_index(self, qualname: str) -> int:
        ix = self._name_of.get(qualname)
        if ix is None:
            ix = self._name_of[qualname] = len(self.names)
            self.names.append(qualname)
        return ix

    def _wrap(self, fn, qualname: str):
        ix = self._name_index(qualname)
        name_ix, parent, op, size = self.name_ix, self.parent, self.op, self.size
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            size.append(-1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if type(result) is list:
                size[i] = len(result)
            return result

        return traced

    # -- output -------------------------------------------------------------------

    def dump(self, path):
        """Write the spans as <path>.json (names, column layout) plus one
        native-endian binary file per column, <path>.<column>."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name_ix", "parent", "op", "size", "start", "end")
        for col in columns:
            with open(f"{path}.{col}", "wb") as fh:
                getattr(self, col).tofile(fh)
        meta = {
            "spans": len(self.start),
            "names": self.names,
            "columns": {c: getattr(self, c).typecode for c in columns},
            "extra": self.extra,
        }
        Path(f"{path}.json").write_text(json.dumps(meta) + "\n")

    @classmethod
    def load(cls, path) -> "Tracer":
        """Read spans written by `dump`."""
        meta = json.loads(Path(f"{path}.json").read_text())
        tracer = cls()
        for name in meta["names"]:
            tracer._name_index(name)
        tracer.extra = meta["extra"]
        for col in meta["columns"]:
            with open(f"{path}.{col}", "rb") as fh:
                getattr(tracer, col).frombytes(fh.read())
        return tracer

    def absorb(self, other: "Tracer", op_id: int):
        """Append another process's spans, all as part of operation `op_id`."""
        base = len(self.start)
        remap = [self._name_index(name) for name in other.names]
        self.name_ix.extend(remap[ix] for ix in other.name_ix)
        self.parent.extend(p + base if p >= 0 else -1 for p in other.parent)
        self.op.extend([op_id] * len(other.op))
        self.size.extend(other.size)
        self.start.extend(other.start)
        self.end.extend(other.end)

    # -- analysis -----------------------------------------------------------------

    def top_level_seconds(self, qualname: str) -> list[float]:
        """Durations of the spans of `qualname` that have no enclosing span."""
        names = self.names
        return [
            (self.end[i] - self.start[i]) / 1e9
            for i in range(len(self.start))
            if self.parent[i] < 0 and names[self.name_ix[i]] == qualname
        ]

    def window_stats(self) -> dict:
        """Per-layer call counts, self time and ratios over the spans recorded
        inside the timed window (op id >= 0)."""
        n = len(self.start)
        names = [self.names[ix] for ix in self.name_ix]
        start, end, parent, op, size = self.start, self.end, self.parent, self.op, self.size
        child_ns = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0 and op[i] >= 0:
                child_ns[p] += end[i] - start[i]
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        idmap = k2_calls = k2_leaves = 0
        related = related_leaves = 0
        kept = filtered = 0
        for i in range(n):
            if op[i] < 0:
                continue
            name = names[i]
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_ns[layer] += end[i] - start[i] - child_ns[i]
            if name in _IDMAP_CALLS:
                idmap += 1
            elif name in _K2_TRAVERSALS and size[i] >= 0:
                k2_calls += 1
                k2_leaves += size[i]
            p = parent[i]
            if p < 0:
                continue
            pname = names[p]
            if name == "k2.K2Tree.row_leaves" and pname == "multiedge.MultiEdgeK2Tree.related_targets":
                related += size[p]
                related_leaves += size[i]
            elif name in _FILTERED_SOURCES and pname in _LABEL_FILTERS and size[p] >= 0:
                kept += size[p]
                filtered += size[i]
        return {
            "calls": calls,
            "self_ns": self_ns,
            "idmap_calls": idmap,
            "k2_leaves_per_call": k2_leaves / k2_calls if k2_calls else 0.0,
            "targets_per_leaf": related / related_leaves if related_leaves else 0.0,
            "label_keep_ratio": kept / filtered if filtered else 0.0,
        }
