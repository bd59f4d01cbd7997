"""In-memory span tracing of attnloc layers, installed from outside the program.

`Tracer.install` replaces named attnloc functions and methods with thin
wrappers that record one span per call: layer name, start, end (ns) and the
index of the enclosing span. Every module attribute bound to a wrapped
function is rebound, so `from .x import f` call sites are traced too. A
target missing from the program is recorded as absent and skipped; its time
then falls into the self time of whichever traced span encloses it.
`Tracer.remove` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """A traced layer: `attr` is a function name or `Class.method` in `attnloc.<module>`.

    `count`, when given, maps (result, args) to a number added to the
    layer's counter on every call.
    """

    layer: str
    module: str
    attr: str
    count: object = None


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    tensors: int = 0


def percentile(values, p: float, min_beyond: int = 10) -> float:
    """Nearest-rank p-th percentile (0 < p < 100) of values.

    Raises ValueError unless at least `min_beyond` samples lie beyond the
    returned rank, so a reported tail is never the few largest samples.
    """
    xs = sorted(values)
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    rank = math.ceil(p / 100.0 * len(xs))
    if rank < 1 or len(xs) - rank < min_beyond:
        raise ValueError(f"p{p:g} of {len(xs)} samples leaves {len(xs) - rank} beyond it, need {min_beyond}")
    return xs[rank - 1]


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of the given intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_stats(spans) -> dict[str, LayerStats]:
    """Calls, total and self time, and Tensors built, per layer.

    spans are (layer, start_ns, end_ns, parent_index, tensors_built) with
    parent_index -1 for a root. Self time is a span's duration minus the
    part of it that its direct child spans cover.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, lo, hi, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((lo, hi))
    stats: dict[str, LayerStats] = {}
    for i, (name, lo, hi, _, tensors) in enumerate(spans):
        s = stats.setdefault(name, LayerStats())
        s.calls += 1
        s.total_ns += hi - lo
        s.self_ns += hi - lo - covered_ns(lo, hi, children.get(i, ()))
        s.tensors += tensors
    return stats


class Tracer:
    """Records spans for a fixed set of targets while installed."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._built = [0]  # Tensors constructed while installed
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    @staticmethod
    def _owner(target: Target):
        """The module or class that defines the target, or None if it is gone."""
        try:
            module = importlib.import_module(f"attnloc.{target.module}")
        except ModuleNotFoundError:
            return None
        cls = target.attr.rpartition(".")[0]
        return getattr(module, cls, None) if cls else module

    def install(self) -> None:
        self.absent = []
        for target in self.targets:
            owner = self._owner(target)
            name = target.attr.rpartition(".")[2]
            original = None if owner is None else vars(owner).get(name)
            if original is None:
                self.absent.append(target.layer)
                continue
            wrapper = self._span_wrapper(target, original)
            if isinstance(owner, type):
                self._set(owner, name, wrapper)
            else:
                for mod in [m for k, m in sys.modules.items() if k == "attnloc" or k.startswith("attnloc.")]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)
        tensor_cls = importlib.import_module("attnloc.autodiff").Tensor
        self._set(tensor_cls, "__init__", self._count_wrapper(tensor_cls.__init__))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _count_wrapper(self, init):
        built = self._built

        @functools.wraps(init)
        def counted(self_, *args, **kwargs):
            built[0] += 1
            init(self_, *args, **kwargs)

        return counted

    def _span_wrapper(self, target: Target, fn):
        spans, stack, built, counters = self.spans, self._stack, self._built, self.counters
        layer, count = target.layer, target.count
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            n0 = built[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, t0, t1, parent, built[0] - n0)
            if count is not None:
                counters[layer] = counters.get(layer, 0) + count(result, args)
            return result

        return traced

    def wrap(self, layer: str, fn):
        """fn recording a span as `layer`, for benchmark code run inside traced layers."""
        return self._span_wrapper(Target(layer, "", ""), fn)

    # -- reading ----------------------------------------------------------------

    def stats(self) -> dict[str, LayerStats]:
        return layer_stats(self.spans)
