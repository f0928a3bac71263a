"""Outside-in tracing of lforge: every public function of the traced modules
is replaced by a wrapper that records a span, in the defining module and in
every lforge module that bound it with ``from ... import``.

A span is (name, start, end, parent, run id).  Spans are kept in compact
arrays in memory and written out by ``save`` once the traced section ends.
Per name the tracer keeps ``calls``, ``busy`` (inclusive time, outermost
calls only, so recursion is not counted twice) and ``self`` (the span's
duration minus the time its child spans cover).

``orders``, ``fields`` and ``textio`` are not wrapped: they are too fine
grained (``MonomialCode.divides`` alone makes about 19 M calls in the
``d9-special`` experiment), so their time is self time of whichever traced
function called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

TRACED_MODULES = ("experiments", "fixtures", "groebner", "hilbert", "ideals",
                  "linalg", "linkage", "mpoly", "pfaffian", "rao", "rng",
                  "snf", "unipoly", "veronese")

# methods wrapped on their class, as (module, class, method)
TRACED_METHODS = (
    ("hilbert", "HilbertData", "from_exponents"),
    ("mpoly", "MPoly", "substitute"),
    ("snf", "PolyMatrix", "mul"),
    ("unipoly", "UniPoly", "__mul__"),
    ("unipoly", "UniPoly", "divmod"),
)

LINALG_SIZED = ("rref_mod", "rank_mod", "nullspace_mod", "solve_mod",
                "det_mod")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per name id
        self.calls: list[int] = []
        self.busy: list[float] = []
        self.self_s: list[float] = []
        self._depth: list[int] = []
        # spans
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[list] = []  # [span index, name id, child time]
        self.counts = {"normal_form.zero": 0, "saturate_irrelevant.gb": 0,
                       "linalg.cells": 0}
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_s.append(0.0)
            self._depth.append(0)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        stack = self._stack
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        frame = [idx, nid, 0.0]
        stack.append(frame)
        depth = self._depth[nid]
        self._depth[nid] = depth + 1
        t0 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.end[idx] = t1
            dur = t1 - t0
            stack.pop()
            self._depth[nid] = depth
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[2]
            if depth == 0:
                self.busy[nid] += dur
            if stack:
                stack[-1][2] += dur

    def active(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self._depth[nid] > 0

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1][1]] if self._stack else None

    # -- installation ---------------------------------------------------

    def _wrapper(self, name: str, fn, after=None, label=None):
        tracer = self
        if label is not None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(tracer._id(label(name, args, kwargs)), fn,
                                   args, kwargs)
            return wrapper
        nid = self._id(name)
        if after is not None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = tracer.call(nid, fn, args, kwargs)
                after(tracer, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(nid, fn, args, kwargs)
        return wrapper

    def install(self):
        """Wrap every public function of TRACED_MODULES and the methods in
        TRACED_METHODS.  Call ``uninstall`` to put the originals back."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"lforge.{m}")
                for m in TRACED_MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    # a generator's work happens in its consumer's span
                    continue
                name = f"{short}.{attr}"
                wrapped[obj] = self._wrapper(name, obj, after=_AFTER.get(name),
                                             label=_LABEL.get(name))
        # rebind in every module that holds the function, under any alias
        for modname, mod in list(sys.modules.items()):
            if modname != "lforge" and not modname.startswith("lforge."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for short, clsname, meth in TRACED_METHODS:
            cls = getattr(mods[short], clsname)
            raw = cls.__dict__[meth]
            name = f"{short}.{clsname}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrapper(name, raw.__func__))
            else:
                new = self._wrapper(name, raw)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def stats(self) -> dict:
        """name -> {"calls", "busy_s", "self_s"} for every name seen."""
        return {n: {"calls": self.calls[i], "busy_s": self.busy[i],
                    "self_s": self.self_s[i]}
                for i, n in enumerate(self.names)}

    def root_time(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                   if p < 0)

    def save(self, path: str):
        import numpy as np

        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32))


# -- counters recorded at the wrapped boundaries --------------------------


def _count_zero_nf(tracer, args, kwargs, result):
    tracer.counts["normal_form.zero"] += result.is_zero()


def _count_gb(tracer, args, kwargs, result):
    # bases computed while a saturation is open (cache disabled, so every
    # call computes one)
    if tracer.active("ideals.saturate_irrelevant"):
        tracer.counts["saturate_irrelevant.gb"] += 1


def _count_cells(tracer, args, kwargs, result):
    # nullspace_mod and solve_mod reduce through rref_mod: count the
    # outermost of these calls only, so no matrix counts twice
    if tracer.parent_name() in _SIZED_NAMES:
        return
    import numpy as np

    shape = np.shape(args[0] if args else kwargs["A"])
    tracer.counts["linalg.cells"] += int(np.prod(shape)) if shape else 1


def _experiment_label(name, args, kwargs):
    return f"{name}.{args[0] if args else kwargs['name']}"


_SIZED_NAMES = {f"linalg.{f}" for f in LINALG_SIZED}
_AFTER = {"groebner.normal_form": _count_zero_nf,
          "groebner.groebner_basis": _count_gb}
_AFTER.update({f"linalg.{f}": _count_cells for f in LINALG_SIZED})
_LABEL = {"experiments.run_experiment": _experiment_label}
