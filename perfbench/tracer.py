"""Span recorder that times logbesov's layers from outside the package.

`Tracer.install` wraps every public function and every explicitly written
public method of the layer modules, plus the FFT entry points of
`numpy.fft` and `scipy.fft`.  Names a module re-binds through
`from .x import y` are found by identity in every loaded `logbesov`
module and replaced too, so a call reaches the wrapper whichever module
makes it.  `uninstall` restores every original binding.

Spans stay in memory as (name, start, end, parent, op) tuples.  A span's
self time is its duration minus the durations of its direct children.
Hooks that inspect arguments or results (hashing inputs, scanning for
negative or non-finite values) run with the clock paused: their cost is
added to `skew`, which every timestamp subtracts, so no span absorbs it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import math
import sys
from collections import defaultdict
from enum import Enum
from time import perf_counter

import numpy as np

LAYERS = (
    "grid",
    "partition",
    "cubes",
    "gallery",
    "norms",
    "criteria",
    "paraproducts",
    "experiments",
)

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

CRITERION_TERMS = ("suff_term2", "suff_term3", "nece_term2", "nece_term3", "pinf_term2", "pinf_term3")
SYMBOL_SPANS = ("partition.DyadicPartition.symbol", "partition.DyadicPartition.cumulative_symbol")

# Per-layer metrics: name -> (unit, better).  Counts are exact for a fixed
# traced pass; times are seconds summed over the same pass.
PER_LAYER = {
    "grid.fft_calls": ("count", "lower"),
    "grid.fft_points": ("count", "lower"),
    "grid.fft_s": ("s", "lower"),
    "grid.self_s": ("s", "lower"),
    "partition.decompose_calls": ("count", "lower"),
    "partition.decompose_s": ("s", "lower"),
    "partition.decompose_unique_ratio": ("ratio", "higher"),
    "partition.symbol_build_s": ("s", "lower"),
    "partition.pieces_bytes": ("bytes", "lower"),
    "partition.self_s": ("s", "lower"),
    "cubes.table_builds": ("count", "lower"),
    "cubes.reduce_calls": ("count", "lower"),
    "cubes.reduce_s": ("s", "lower"),
    "cubes.negative_means": ("count", "lower"),
    "cubes.self_s": ("s", "lower"),
    **{f"criteria.{t}_self_s": ("s", "lower") for t in CRITERION_TERMS},
    "criteria.nonfinite_values": ("count", "lower"),
    "criteria.self_s": ("s", "lower"),
    "gallery.build_calls": ("count", "lower"),
    "gallery.build_s": ("s", "lower"),
    "gallery.self_s": ("s", "lower"),
    "norms.besov_calls": ("count", "lower"),
    "norms.besov_self_s": ("s", "lower"),
    "norms.self_s": ("s", "lower"),
    "paraproducts.lower_bound_self_s": ("s", "lower"),
    "paraproducts.self_s": ("s", "lower"),
    "experiments.runner_self_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _nonfinite(obj) -> int:
    """Non-finite floats in a report, skipping `tail` (inf flags divergence)."""
    if isinstance(obj, (float, np.floating)):
        return 0 if math.isfinite(obj) else 1
    if isinstance(obj, (list, tuple)):
        return sum(_nonfinite(v) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            _nonfinite(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name != "tail"
        )
    return 0


def _array_bytes(obj, depth: int = 0) -> int:
    """Bytes of the arrays a decomposition holds (its partition excluded)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth > 3:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, depth + 1) for v in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(v, depth + 1) for v in obj.values())
    if hasattr(obj, "__dict__") and type(obj).__module__.startswith("logbesov"):
        return sum(
            _array_bytes(v, depth + 1)
            for k, v in vars(obj).items()
            if k not in ("partition", "grid")
        )
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self.skew = 0.0
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.decompose_inputs: set[bytes] = set()

    def now(self) -> float:
        return perf_counter() - self.skew

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append((idx, name))
            t0 = tracer.now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = tracer.now()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op)
            if hook is not None:
                h0 = perf_counter()
                hook(args, kwargs, out)
                tracer.skew += perf_counter() - h0
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _hook_for(self, name: str):
        if name == "partition.decompose":
            return self._on_decompose
        if name == "cubes.level_cube_means":
            return self._on_cube_means
        if _layer(name) == "criteria":
            return self._on_criterion
        return None

    def install(self) -> None:
        replaced: dict[int, object] = {}
        for modname in FFT_MODULES:
            mod = importlib.import_module(modname)
            for fname in FFT_NAMES:
                fn = getattr(mod, fname, None)
                if fn is None or id(fn) in replaced:
                    continue
                wrapped = self._wrap(f"grid.fft.{fname}", fn, self._on_fft)
                replaced[id(fn)] = wrapped
                self._set(mod, fname, wrapped)
        for layer in LAYERS:
            mod = importlib.import_module(f"logbesov.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(name, obj, self._hook_for(name))
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_methods(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "logbesov" or modname.startswith("logbesov.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and obj is not replaced[id(obj)]:
                    self._set(mod, attr, replaced[id(obj)])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for mname, meth in list(vars(cls).items()):
            if not inspect.isfunction(meth):
                continue
            explicit_init = mname == "__init__" and not dataclasses.is_dataclass(cls)
            if mname.startswith("_") and not explicit_init:
                continue
            self._set(cls, mname, self._wrap(f"{layer}.{cls.__name__}.{mname}", meth))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- hooks ----------------------------------------------------------------

    def _on_fft(self, args, kwargs, out) -> None:
        self.counters["fft_points"] += int(np.size(args[0] if args else kwargs.get("x", ())))

    def _on_decompose(self, args, kwargs, out) -> None:
        f = args[0] if args else kwargs.get("f")
        values = np.ascontiguousarray(f.values)
        self.decompose_inputs.add(hashlib.blake2b(values.view(np.uint8), digest_size=16).digest())
        self.counters["pieces_bytes"] = max(self.counters["pieces_bytes"], _array_bytes(out))

    def _on_cube_means(self, args, kwargs, out) -> None:
        data = np.asarray(args[1] if len(args) > 1 else kwargs.get("data", ()))
        if data.size and np.min(data) >= 0:
            self.counters["negative_means"] += int(np.count_nonzero(np.asarray(out) < 0))

    def _on_criterion(self, args, kwargs, out) -> None:
        # count once per report: only where the caller is outside criteria
        if self._stack and _layer(self._stack[-1][1]) == "criteria":
            return
        self.counters["nonfinite_values"] += _nonfinite(out)

    # -- aggregation ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = defaultdict(float)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_by_name = defaultdict(float)
        calls = defaultdict(int)
        entry_calls = defaultdict(int)  # calls entering a layer from outside it
        entry_s = defaultdict(float)
        symbol_s = 0.0
        for idx, (name, t0, t1, parent, _) in enumerate(spans):
            dur = t1 - t0
            self_by_name[name] += dur - child[idx]
            calls[name] += 1
            parent_name = spans[parent][0] if parent >= 0 else ""
            if _layer(parent_name) != _layer(name):
                entry_calls[_layer(name)] += 1
                entry_s[_layer(name)] += dur
            if name in SYMBOL_SPANS and parent_name not in SYMBOL_SPANS:
                symbol_s += dur
        layer_self = defaultdict(float)
        for name, s in self_by_name.items():
            layer_self[_layer(name)] += s

        def self_of(*names):
            return sum(self_by_name[n] for n in names)

        fft_names = [n for n in calls if n.startswith("grid.fft.")]
        n_dec = calls["partition.decompose"]
        out = {
            "grid.fft_calls": sum(calls[n] for n in fft_names),
            "grid.fft_points": self.counters["fft_points"],
            "grid.fft_s": self_of(*fft_names),
            "partition.decompose_calls": n_dec,
            "partition.decompose_s": sum(
                t1 - t0 for name, t0, t1, _, _ in spans if name == "partition.decompose"
            ),
            "partition.decompose_unique_ratio": len(self.decompose_inputs) / n_dec if n_dec else 0.0,
            "partition.symbol_build_s": symbol_s,
            "partition.pieces_bytes": self.counters["pieces_bytes"],
            "cubes.table_builds": calls["cubes.CubeMeanTable.__init__"],
            "cubes.reduce_calls": entry_calls["cubes"],
            "cubes.reduce_s": entry_s["cubes"],
            "cubes.negative_means": self.counters["negative_means"],
            "criteria.nonfinite_values": self.counters["nonfinite_values"],
            "gallery.build_calls": entry_calls["gallery"],
            "gallery.build_s": entry_s["gallery"],
            "norms.besov_calls": calls["norms.besov_norm"],
            "norms.besov_self_s": self_of("norms.besov_norm"),
            "paraproducts.lower_bound_self_s": self_of("paraproducts.multiplier_lower_bound"),
            "experiments.runner_self_s": self_of(
                *(n for n in calls if n.startswith("experiments.run_"))
            ),
        }
        for term in CRITERION_TERMS:
            out[f"criteria.{term}_self_s"] = self_of(f"criteria.{term}")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out
