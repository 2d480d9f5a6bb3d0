"""The benchmark's workloads: sweep configs, warm-up configs and the layers each must exercise.

A workload is one or more parts, each a list of sweep configs run at the
benchmark seed; a part's sweep CSVs are checked together against
``reference/<part>.json``. A run times the workload cell by cell: each
cell is a sweep config cut down to one method and one gamma, run through
``experiments.run_sweep(cell, jobs=1, seeds_override=[seed])``. Every cell
regenerates its inputs from that seed, so the seed alone fixes the inputs,
and the cells' rows, in order, are the rows of the whole sweeps.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Part:
    name: str  # names its reference file
    configs: tuple  # preset paths relative to the checkout root, or inline configs


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple  # Part, in run order
    layers: tuple  # layers the traced run must see called at least once

    def load(self, smoke: bool = False) -> list[dict]:
        """Every config of every part, in run order."""
        configs = [json.loads((ROOT / c).read_text()) if isinstance(c, str) else c for p in self.parts for c in p.configs]
        return [tiny(c) for c in configs] if smoke else configs

    def cells(self, smoke: bool = False) -> list[Cell]:
        """Every cell, in the order ``run_sweep`` would run the configs one after another."""
        parts = [p.name for p in self.parts for _ in p.configs]
        cells = []
        for index, config in enumerate(self.load(smoke)):
            for method in config["methods"]:
                for gamma in method["gammas"]:
                    cells.append(Cell(parts[index], index, {**config, "methods": [{**method, "gammas": [gamma]}]}))
        return cells


@dataclass(frozen=True)
class Cell:
    part: str
    config: int  # index of its config in Workload.load()
    sweep: dict  # the config cut down to this cell


def tiny(config: dict) -> dict:
    """The same config at n=12 with one gamma per method: the warm-up and smoke-test size."""
    config = copy.deepcopy(config)
    config["pair"]["n"] = 12
    if "block_sizes" in config["pair"]:
        config["pair"]["block_sizes"] = [6, 6]
    for method in config["methods"]:
        method["gammas"] = method["gammas"][:1]
    return config


SOLVE_LAYERS = (
    "experiments.generate_pair",
    "spectral.leading_eigenvector",
    "metrics.count_alignment",
    "metrics.generalized_objective",
    "align.eigen_align",
)

FIG3 = Part("fig3_sweep", ("presets/fig3a.json", "presets/fig3b.json", "presets/fig3c.json", "presets/fig3d.json"))
EA_RESTRICTED = Part(
    "ea_restricted",
    (
        {
            "name": "ea-restricted-noisy-er",
            "pair": {"family": "er", "n": 500, "p": 0.1, "noise": "model2", "pe": 0.05},
            "methods": [{"name": "ea", "gammas": [0.1, 0.2, 0.3], "eps": 0.001, "restrict_k": 4, "matching": "exact"}],
            "seeds": [0],
        },
    ),
)
LARGE_GREEDY = Part(
    "large_greedy",
    (
        {
            "name": "large-greedy-ea",
            "pair": {"family": "er", "n": 1000, "p": 0.05, "noise": "none"},
            "methods": [{"name": "ea", "gammas": [0.2], "eps": 0.001, "matching": "greedy"}],
            "seeds": [0],
        },
        {
            "name": "large-greedy-lra",
            "pair": {"family": "er", "n": 400, "p": 0.1, "noise": "none"},
            "methods": [{"name": "lra", "gammas": [0.2], "rank": 3, "matching": "greedy"}],
            "seeds": [0],
        },
    ),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig3_sweep",
            (FIG3,),
            SOLVE_LAYERS
            + (
                "align.low_rank_align",
                "score.alignment_matvec",
                "spectral.psd_shift",
                "spectral.top_k_eigs",
                "matching.hungarian_max_weight",
                "matching.lap",
            ),
        ),
        Workload(
            "large",
            (LARGE_GREEDY, EA_RESTRICTED),  # slowest cells first: the last round, cut short, still has them
            SOLVE_LAYERS
            + (
                "randgen.sample_mapping_set",
                "score.build_alignment_matrix",
                "matching.hungarian_max_weight",
                "matching.lap",
                "align.low_rank_align",
                "score.alignment_matvec",
                "spectral.psd_shift",
                "spectral.top_k_eigs",
                "matching.greedy_matching",
            ),
        ),
    )
}
