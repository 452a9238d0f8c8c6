"""Span tracer for the benchmark: wraps stonework's public functions from
outside the package and records calls and self time per span.

Several modules import names directly (``from .ultra import enumerate_theta``),
so wrapping a function means rebinding it in the module that defines it and
in every stonework module that holds a reference to it.  Methods are wrapped
on their class, which every module shares.  ``uninstall`` puts every original
back.

Spans are aggregated in memory (a count and a self time per name) rather than
kept one record per call: a traced frontier pass makes about a million
``SelfMapMonoid.compose`` calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of every declared span; a dotted path is a method
SPANS = [
    ("cli", "main"),
    ("suite", "run_suite"),
    ("navector", "free_space"),
    ("navector", "kantorovich_norm"),
    ("navector", "kantorovich_norm_with_auxiliary"),
    ("navector", "lipschitz_linear_extend"),
    ("ultra", "enumerate_theta"),
    ("ultra", "UltraPseudometric.from_rows"),
    ("ultra", "d_from_chain"),
    ("ultra", "minimax_path_distance"),
    ("ultra", "epsilon_A_relation"),
    ("ultra", "nonexpansive_counterexample"),
    ("finmon", "validate_monoid"),
    ("finmon", "generated_selfmap_monoid"),
    ("finmon", "SelfMapMonoid.compose"),
    ("finmon", "SelfMapMonoid.verify_closure"),
    ("finmon", "SelfMapMonoid.to_monoid"),
    ("contrast", "build_contrast"),
    ("contrast", "rna_certificate"),
    ("boolring", "enumerate_ring_endos"),
    ("boolring", "enumerate_group_endos"),
    ("duality", "entourage_transport"),
    ("duality", "hom_embed"),
    ("duality", "entourage_partition"),
    ("unif", "saturate"),
    ("unif", "preimage_partition"),
    ("unif", "is_meet_closed"),
    ("unif", "is_saturated_under"),
    ("generators", "enumerate_actions"),
    ("generators", "random_transformation_monoid"),
    ("generators", "random_one_sided_metric"),
]

SPAN_NAMES = [f"{module}.{path}" for module, path in SPANS]


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class Tracer:
    """Counts calls and self time of every declared span while installed.

    Self time is a span's wall time minus the time of the traced spans it
    called.  Two extra counters are kept where the work happens:
    ``navector.kantorovich_norm.matchings`` sums the (2m-1)!! pairings a
    norm call enumerates, and ``ultra.enumerate_theta`` records the maps kept
    against the n**n candidates.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[float] = []      # child time of each open span
        self._undo: list = []

    def _wrap(self, name: str, fn, on_call=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def _count_matchings(self, args, result) -> None:
        support = len(args[0].support)
        if support:     # the zero vector returns before any pairing is tried
            self.counters["navector.kantorovich_norm.matchings"] += (
                double_factorial(support + support % 2 - 1))

    def _count_theta(self, args, result) -> None:
        n = args[0].carrier_size
        self.counters["ultra.enumerate_theta.kept"] += len(result)
        self.counters["ultra.enumerate_theta.candidates"] += n ** n

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {
            "navector.kantorovich_norm": self._count_matchings,
            "ultra.enumerate_theta": self._count_theta,
        }
        holders = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "stonework" or key.startswith("stonework."))]
        for (module, path), name in zip(SPANS, SPAN_NAMES):
            owner = sys.modules[f"stonework.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__, hooks.get(name)))
                else:
                    wrapped = self._wrap(name, raw, hooks.get(name))
                setattr(cls, attr, wrapped)
                self._undo.append((cls, attr, raw))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(name, original, hooks.get(name))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
