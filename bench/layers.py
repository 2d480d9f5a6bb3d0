"""Per-layer tracing: timing wrappers patched in where each layer is called.

The package binds names with ``from .x import y``, so a wrapper must replace
the name in the module that *calls* the layer, not in the module that
defines it: ``specalign.align.hungarian_max_weight`` is what ``eigen_align``
calls, and a wrapper on ``specalign.matching.hungarian_max_weight`` alone
would time nothing. Every wrapper checks that its target is still bound at
each call site, so a refactor that moves a function fails the traced run
instead of silently zeroing a layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

CELL = "experiments.run_cell"

# layer -> ("module:function" that implements it, modules whose global name the sweep path calls)
LAYERS = {
    CELL: ("specalign.experiments:run_cell", ["specalign.experiments"]),
    "experiments.generate_pair": ("specalign.experiments:generate_pair", ["specalign.experiments"]),
    "randgen.sample_mapping_set": ("specalign.randgen:sample_mapping_set", ["specalign.experiments"]),
    "align.eigen_align": ("specalign.align:eigen_align", ["specalign.experiments"]),
    "align.low_rank_align": ("specalign.align:low_rank_align", ["specalign.experiments"]),
    "score.build_alignment_matrix": ("specalign.score:build_alignment_matrix", ["specalign.align"]),
    "score.alignment_matvec": ("specalign.score:alignment_matvec", ["specalign.align"]),
    "spectral.leading_eigenvector": ("specalign.spectral:leading_eigenvector", ["specalign.align"]),
    "spectral.psd_shift": ("specalign.spectral:psd_shift", ["specalign.align"]),
    "spectral.top_k_eigs": ("specalign.spectral:top_k_eigs", ["specalign.align"]),
    "matching.hungarian_max_weight": ("specalign.matching:hungarian_max_weight", ["specalign.align"]),
    "matching.greedy_matching": ("specalign.matching:greedy_matching", ["specalign.align"]),
    "matching.lap": ("scipy.optimize:linear_sum_assignment", ["specalign.matching"]),
    "metrics.count_alignment": ("specalign.metrics:count_alignment", ["specalign.align"]),
    "metrics.generalized_objective": ("specalign.metrics:generalized_objective", ["specalign.align"]),
}

# (name, unit, better). Names ending in ".calls" and the three ratios after
# them are counts: they must repeat exactly between passes of one seed.
PER_LAYER = [
    ("matching.hungarian_max_weight.calls", "count", "lower"),
    ("matching.hungarian_max_weight.s", "s", "lower"),
    ("matching.hungarian_max_weight.self_s", "s", "lower"),
    ("matching.lap.calls", "count", "lower"),
    ("matching.lap.s", "s", "lower"),
    ("matching.lap_useful_ratio", "ratio", "higher"),
    ("matching.greedy_matching.calls", "count", "lower"),
    ("matching.greedy_matching.s", "s", "lower"),
    ("score.alignment_matvec.calls", "count", "lower"),
    ("score.alignment_matvec.s", "s", "lower"),
    ("spectral.leading_eigenvector.calls", "count", "lower"),
    ("spectral.leading_eigenvector.s", "s", "lower"),
    ("spectral.leading_eigenvector.self_s", "s", "lower"),
    ("spectral.power_iters", "count", "lower"),
    ("spectral.top_k_eigs.s", "s", "lower"),
    ("spectral.psd_shift.s", "s", "lower"),
    ("score.build_alignment_matrix.s", "s", "lower"),
    ("randgen.sample_mapping_set.s", "s", "lower"),
    ("metrics.generalized_objective.calls", "count", "lower"),
    ("metrics.generalized_objective.s", "s", "lower"),
    ("metrics.count_alignment.s", "s", "lower"),
    ("align.sign_candidates", "count", "lower"),
    ("align.eigen_align.self_s", "s", "lower"),
    ("align.low_rank_align.self_s", "s", "lower"),
    ("experiments.generate_pair.s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]
COUNTS = {"matching.lap_useful_ratio", "spectral.power_iters", "align.sign_candidates"}


class LayerMissingError(RuntimeError):
    """A layer's function is no longer bound where the sweep path calls it."""


class Tracer:
    """Calls, inclusive and self seconds per layer, plus direct parent/child call counts."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.calls = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.nested = Counter()  # (parent, child) -> child calls made directly inside parent spans
        self.spans_with = Counter()  # (parent, child) -> parent spans that made at least one such call
        self._stack: list[list] = []

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, Counter()]  # seconds covered by child spans, child calls by layer
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[layer] += 1
                self.seconds[layer] += elapsed
                self.self_seconds[layer] += elapsed - frame[0]
                for child, n in frame[1].items():
                    self.nested[layer, child] += n
                    self.spans_with[layer, child] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
                    self._stack[-1][1][layer] += 1

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers at every call site for the duration of the block."""
        saved = []
        try:
            for layer in self.layers:
                origin, sites = LAYERS[layer]
                module_name, attr = origin.split(":")
                target = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(layer, target)
                for site in sites:
                    module = importlib.import_module(site)
                    if getattr(module, attr, None) is not target:
                        raise LayerMissingError(
                            f"{site}.{attr} is not {origin}: layer {layer} would record nothing"
                        )
                    saved.append((module, attr, target))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, target in reversed(saved):
                setattr(module, attr, target)

    def values(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_frac, for the spans recorded so far."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.seconds[layer]
            out[f"{layer}.self_s"] = self.self_seconds[layer]
        out["experiments.self_s"] = self.self_seconds[CELL]
        out["matching.lap_useful_ratio"] = _ratio(self.calls["matching.hungarian_max_weight"], self.calls["matching.lap"])
        matvec = ("spectral.leading_eigenvector", "score.alignment_matvec")
        out["spectral.power_iters"] = _ratio(self.nested[matvec], self.spans_with[matvec])
        lra = "align.low_rank_align"
        rounded = self.nested[lra, "matching.hungarian_max_weight"] + self.nested[lra, "matching.greedy_matching"]
        out["align.sign_candidates"] = _ratio(rounded, self.calls[lra])
        return {name: out[name] for name, _, _ in PER_LAYER if name in out}


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when the layer never ran."""
    return num / den if den else 0.0
