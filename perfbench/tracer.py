"""In-memory span tracer for vardim's public functions.

``Tracer.install()`` wraps every public function of the package (the names
``vardim`` exports, plus ``vardim.cli.main``) at every ``vardim.*`` module
binding, because modules import names directly (``positivity`` calls its
own ``impulse_response`` binding, for instance).  A span is (name, start,
end, parent) in ``perf_counter_ns`` units; spans live in flat arrays until
the run ends.  Self time is a span's duration minus the durations of its
direct children, which on one thread cover exactly the time spent below it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array

import numpy as np

# Per-call counts recorded next to the spans.  "pre" counters read the
# arguments, so they are recorded even when the call raises.
COUNTERS = {
    "totpos.compound_matrix": ("pre", "bytes",
                               lambda a, kw, r: _compound_bytes(*a, **kw)),
    "lti.impulse_response": ("pre", "samples",
                             lambda a, kw, r: _arg(a, kw, 1, "horizon") + 1),
    "compound.compound_realization": ("post", "state_dim",
                                      lambda a, kw, r: r.order),
    "compound.compound_transfer": ("post", "terms",
                                   lambda a, kw, r: len(r.terms)),
    "oracle.ovd_verify": ("post", "inputs_checked",
                          lambda a, kw, r: r.inputs_checked),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _compound_bytes(X, r):
    """Bytes numpy materializes for ``compound_matrix(X, r)``: the stacked
    r x r submatrices plus the result, computed from the shapes."""
    m, n = np.shape(X)
    rows, cols = math.comb(m, r), math.comb(n, r)
    return 8 * rows * cols * (r * r + 1)


def public_functions():
    """id -> (qualified name, function) for every function the package
    exports, plus the command's entry point."""
    import vardim
    import vardim.cli
    fns = [obj for obj in vars(vardim).values() if inspect.isfunction(obj)]
    fns.append(vardim.cli.main)
    return {id(fn): (f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}", fn)
            for fn in fns}


def vardim_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "vardim" or name.startswith("vardim."))
            and mod is not None]


class Tracer:
    """Spans live in one flat int64 array, four fields per span (name id,
    parent index, start, end), so that each update is a single C call and
    a deadline raised between bytecodes cannot leave the fields out of
    step.  Such a span keeps end = 0, which ``self_ok`` reports."""

    FIELDS = 4

    def __init__(self):
        self.names = []
        self._ids = {}
        self.rec = array("q")
        self.counts = {}
        self._stack = []
        self._restore = []

    def __len__(self) -> int:
        return len(self.rec) // self.FIELDS

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self)
        parent = self._stack[-1] if self._stack else -1
        self.rec.extend((nid, parent, time.perf_counter_ns(), 0))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.rec[idx * self.FIELDS + 3] = time.perf_counter_ns()

    def count(self, key: str, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the benchmark's own."""
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        when, counter, measure = COUNTERS.get(name, (None, None, None))
        key = f"{name}.{counter}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when == "pre":
                self.count(key, measure(args, kwargs, None))
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if when == "post":
                self.count(key, measure(args, kwargs, result))
            return result
        return traced

    def install(self):
        """Rebind every public function at every vardim.* binding."""
        modules = vardim_modules()
        wrappers = {key: (fn, self.wrap(name, fn))
                    for key, (name, fn) in public_functions().items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def spans(self) -> dict:
        rec = np.frombuffer(self.rec, dtype=np.int64).reshape(-1, 4)
        return {"names": list(self.names),
                "name": rec[:, 0].astype(np.int32),
                "parent": rec[:, 1].astype(np.int32),
                "start": rec[:, 2].copy(), "end": rec[:, 3].copy()}


def self_times(spans: dict) -> np.ndarray:
    """Per-span self time in ns: duration minus direct children."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered


def summarize(spans: dict) -> dict:
    """name -> (calls, self_ns) over all spans."""
    selfs = self_times(spans)
    out = {}
    for nid, name in enumerate(spans["names"]):
        mask = spans["name"] == nid
        out[name] = (int(mask.sum()), float(selfs[mask].sum()))
    return out


def merge(parts: list) -> dict:
    """Concatenate span sets, remapping names and parent indices."""
    index = {}
    cols = {"name": [], "parent": [], "start": [], "end": []}
    offset = 0
    for part in parts:
        remap = np.array([index.setdefault(n, len(index)) for n in
                          part["names"]] or [0], dtype=np.int32)
        cols["name"].append(remap[part["name"]])
        cols["parent"].append(np.where(part["parent"] >= 0,
                                       part["parent"] + offset, -1)
                              .astype(np.int32))
        cols["start"].append(part["start"])
        cols["end"].append(part["end"])
        offset += len(part["start"])
    out = {key: np.concatenate(v) for key, v in cols.items()}
    out["names"] = list(index)
    return out


def save(path: str, spans: dict, counts: dict):
    """Write spans and counts to ``path`` as one .npz file."""
    np.savez(path, names=np.asarray(spans["names"], dtype=str),
             counts=np.asarray(json.dumps(counts)),
             **{key: spans[key] for key in ("name", "parent", "start", "end")})


def load(path: str) -> dict:
    """Spans written by ``save``, with their counts under "counts"."""
    with np.load(path) as raw:
        return {"names": raw["names"].tolist(),
                "counts": json.loads(raw["counts"].item()),
                **{key: raw[key] for key in ("name", "parent", "start",
                                             "end")}}
