"""Spans and counters around cnlab's public functions, installed from outside.

The tracer wraps functions by rebinding module attributes; nothing under
``src/`` is edited. Three details make the rebinding complete:

* modules are fetched with ``importlib.import_module``, because the package
  re-exports a function named ``monitor`` that shadows the ``cnlab.monitor``
  module attribute;
* names that other modules imported by value (``from .fields import linf``)
  are rebound in every cnlab module, found by identity with the original;
* ``numpy.fft.{fftn,ifftn,rfftn,irfftn}`` are wrapped at the numpy boundary
  and each call is attributed to the innermost open cnlab span.

A span's self time is its duration minus the durations of the spans it
opened; FFT calls are spans of their own, so a caller's self time excludes
its transforms.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("fields", "grid", "littlewood_paley", "paraproduct", "phi",
           "semigroup", "solver", "monitor", "snapshots", "verification",
           "config", "cli")

# The transform pair is the fft layer itself, counted at the numpy boundary;
# wrapping these would attribute every transform to them instead of to the
# function that asked for it.
UNWRAPPED = {"fields.phys_values", "fields.spectral_values",
             "fields.to_physical", "fields.to_spectral"}

FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn")
# The solver entry points: wrapping only these splits an untraced run into
# phases at negligible cost.
SOLVER_SPANS = ("solver.picard_solve", "solver.etdrk4_integrate")


def cnlab_modules() -> dict:
    return {name: importlib.import_module(f"cnlab.{name}") for name in MODULES}


def public_functions(mod) -> dict:
    """Functions defined in ``mod`` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == mod.__name__}


class Tracer:
    """Collects per-function call counts, self time and FFT work.

    ``install`` wraps every public function (or only the keys in ``only``)
    plus, unless ``only`` is given, the numpy FFT entry points and the
    verification check registry. ``uninstall`` restores every binding.
    """

    def __init__(self) -> None:
        self._stack: list[list] = []   # frames: [key, seconds covered by children]
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                          "fft_calls": 0})
        self.fft = {"calls": 0, "points": 0, "bytes": 0, "zero_input": 0}
        self.blocks = {"transforms": 0, "empty": 0}
        self.counts = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def _call(self, key: str, fn, args, kwargs):
        frame = [key, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            st = self.stats[key]
            st["calls"] += 1
            st["total_s"] += dur
            st["self_s"] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def _open(self, key: str) -> bool:
        return any(frame[0] == key for frame in self._stack)

    def _wrap(self, key: str, fn):
        hook = getattr(self, "_after_" + key.replace(".", "_"), None)
        before = getattr(self, "_before_" + key.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            try:
                result = self._call(key, fn, args, kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(args, kwargs, None, exc)
                raise
            if hook is not None:
                hook(args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_fft(self, fn):
        def wrapper(a, *args, **kwargs):
            arr = np.asarray(a)
            owner = self._stack[-1][0] if self._stack else "outside"
            self.fft["calls"] += 1
            self.fft["points"] += arr.size
            self.fft["zero_input"] += int(not arr.any())
            self.stats[owner]["fft_calls"] += 1
            if owner.startswith("littlewood_paley."):
                # block transforms are batched over a leading state axis;
                # count one transform per state
                per_state = arr.reshape(arr.shape[0], -1).any(axis=1)
                self.blocks["transforms"] += per_state.size
                self.blocks["empty"] += int(per_state.size - np.count_nonzero(per_state))
            out = self._call("fft", fn, (arr,) + args, kwargs)
            self.fft["bytes"] += arr.nbytes + out.nbytes
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters read from arguments and results -------------------------------

    def _before_semigroup_nonlinearity(self, args, kwargs) -> None:
        if self._open("solver.etdrk4_integrate"):
            self.counts["rhs_etdrk4"] += 1
        elif self._open("solver.picard_solve"):
            self.counts["rhs_picard"] += 1

    def _after_solver_picard_solve(self, args, kwargs, result, exc) -> None:
        report = result[1] if exc is None else getattr(exc, "report", None)
        if report is not None:
            self.counts["picard_iters"] += report.iterations

    def _after_monitor_monitor(self, args, kwargs, result, exc) -> None:
        if result is not None:
            self.counts["monitor_records"] += len(result)

    def _after_snapshots_write_snapshot(self, args, kwargs, result, exc) -> None:
        if exc is None:
            self.counts["write_snapshot_bytes"] += os.path.getsize(args[0])

    def _after_snapshots_read_snapshot(self, args, kwargs, result, exc) -> None:
        if exc is None:
            self.counts["read_snapshot_bytes"] += os.path.getsize(args[0])

    # -- installation ----------------------------------------------------------

    def _rebind(self, ns: dict, name: str, value) -> None:
        self._undo.append((ns, name, ns[name]))
        ns[name] = value

    def install(self, only: tuple[str, ...] | None = None) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = cnlab_modules()
        originals = {}
        for mname, mod in mods.items():
            for fname, fn in public_functions(mod).items():
                key = f"{mname}.{fname}"
                if key in UNWRAPPED or (only is not None and key not in only):
                    continue
                originals[id(fn)] = self._wrap(key, fn)
        namespaces = [vars(m) for m in mods.values()]
        namespaces.append(vars(importlib.import_module("cnlab")))
        for ns in namespaces:
            for name, value in list(ns.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._rebind(ns, name, wrapper)
        if only is not None:
            return
        checks = mods["verification"].CHECKS
        for name, runner in list(checks.items()):
            self._rebind(checks, name, self._wrap(f"verification.{name}", runner))
        fft_ns = vars(np.fft)
        for name in FFT_FUNCS:
            self._rebind(fft_ns, name, self._wrap_fft(fft_ns[name]))

    def uninstall(self) -> None:
        while self._undo:
            ns, name, value = self._undo.pop()
            ns[name] = value
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
