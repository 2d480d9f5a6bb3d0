"""Experiment cells for the sweep driver: pair generation, method runs, CSV rows.

A sweep is the cross product of (method, gamma, seed). Every cell
regenerates its graph pair from the pair spec and the cell seed, so cells
are independent, order-free, and safe to run in parallel; rows are
assembled in config order regardless of completion order.
"""

from __future__ import annotations

import csv
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .align import MATCHING_MODES, SIGN_ENUM_MAX_RANK, brute_force_qap, eigen_align, low_rank_align
from .graph import Graph, Permutation, apply_permutation
from .matching import Assignment
from .metrics import node_accuracy
from .randgen import (
    erdos_renyi,
    noise_model_I,
    noise_model_II,
    power_law,
    random_permutation,
    random_regular,
    sample_mapping_set,
    stochastic_block_model,
)
from .score import MappingSet, from_alpha

__all__ = [
    "ConfigError",
    "cell_record",
    "child_seed",
    "first_graph",
    "generate_pair",
    "parse_seed",
    "run_cell",
    "run_sweep",
    "solve_cell",
    "sweep_rows_to_csv",
    "CSV_COLUMNS",
]

CSV_COLUMNS = [
    "method",
    "gamma",
    "seed",
    "matches",
    "mismatches",
    "neutrals",
    "objective",
    "accuracy",
    "wall_ms",
    "error",
]

# child-seed streams per cell seed
STREAM_GRAPH = 0
STREAM_NOISE = 1
STREAM_PERMUTATION = 2
STREAM_MAPPING_SET = 3
STREAM_SOLVER = 4


class ConfigError(ValueError):
    """Invalid generator or sweep configuration."""


def cell_record(method, gamma, seed, scores=(None,) * 4, accuracy=None, wall_ms=None, error="") -> dict:
    """One metrics record keyed by ``CSV_COLUMNS``: a sweep row, or a CLI line.

    ``scores`` is ``(matches, mismatches, neutrals, objective)``.
    """
    return dict(zip(CSV_COLUMNS, (method, gamma, seed, *scores, accuracy, wall_ms, error)))


def child_seed(seed: int, stream: int) -> int:
    """Derive an independent integer seed for one randomness stream of a cell."""
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


def _density(g: Graph) -> float:
    return 2 * g.edge_count / (g.n * (g.n - 1)) if g.n > 1 else 0.0


REQUIRED = object()  # marks a key with no default; unlike None, no JSON value equals it

NOISE_MODELS = ("none", "model1", "model2")
NOISE = {"noise": "none", "pe": 0.0}  # read by each family whose second graph is a relabelled copy of the first

# each pair family with every spec key it reads and that key's default
PAIR_FAMILIES = {
    "er": {"n": REQUIRED, "p": REQUIRED, **NOISE},
    "sbm": {"block_sizes": REQUIRED, "density": REQUIRED, **NOISE},
    "regular": {"n": REQUIRED, "d": REQUIRED, **NOISE},
    "powerlaw": {"n": REQUIRED, "m": 3, "n0": 5, **NOISE},
    "er_sbm": {"n": 25, "p": 0.1, "block_sizes": [25, 25], "within": [0.1, 0.3], "cross": 0.05},
}

# each method with every spec key it reads and that key's default; every method also needs ``gammas``
METHODS = {
    "ea": {"eps": 0.001, "restrict_k": None, "matching": "exact"},
    "lra": {"rank": 3, "matching": "exact"},
    "brute": {},
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _list_of(rule):
    return lambda value: isinstance(value, list) and all(rule(item) for item in value)


# each spec key's rule: whether a value passes, and what it must be; keys without one are checked where they are used.
# Generator keys get a type only: their ranges and the relations between them are the generators' to check.
KEY_RULES = {
    **dict.fromkeys(("n", "d", "m", "n0"), (_is_int, "an integer")),
    **dict.fromkeys(("p", "cross"), (_is_number, "a number")),
    "block_sizes": (_list_of(_is_int), "a list of integers"),
    "within": (_list_of(_is_number), "a list of numbers"),
    "density": (_list_of(_list_of(_is_number)), "a list of lists of numbers"),
    "noise": (lambda v: v in NOISE_MODELS, f"one of {', '.join(NOISE_MODELS)}"),
    "pe": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "eps": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "restrict_k": (lambda v: v is None or (_is_int(v) and v > 0), "a positive integer"),
    "rank": (lambda v: _is_int(v) and 1 <= v <= SIGN_ENUM_MAX_RANK, f"an integer in [1, {SIGN_ENUM_MAX_RANK}]"),
    "matching": (lambda v: v in MATCHING_MODES, " or ".join(map(repr, MATCHING_MODES))),
}


def _spec_keys(table: dict, kind: str, name, spec: dict) -> tuple[str, dict]:
    """``name``, a key of ``table``, and each key its entry reads, from ``spec`` or the entry's default, checked."""
    if not isinstance(name, str) or name not in table:  # a JSON list is unknown, not unhashable
        raise ConfigError(f"{kind} {name!r} is not one of {', '.join(table)}")
    keys = {key: spec.get(key, default) for key, default in table[name].items()}
    declared = {key for entry in table.values() for key in entry}  # checked wherever a spec holds one: lra's eps too
    for key, value in {**spec, **keys}.items():
        if value is REQUIRED:
            raise ConfigError(f"{kind} {name!r} requires {key!r}")
        if key in declared and key in KEY_RULES and not KEY_RULES[key][0](value):
            raise ConfigError(f"{kind} {name!r} {key} {value!r} is not {KEY_RULES[key][1]}")
    return name, keys


def _pair_keys(spec: dict) -> tuple[str, dict]:
    """A pair spec's family and each key that family reads, from the spec or the family's default."""
    if not isinstance(spec, dict):
        raise ConfigError(f"pair spec {spec!r} is not an object")
    return _spec_keys(PAIR_FAMILIES, "pair family", spec.get("family"), spec)


def _check_gamma(gamma: float, method: str | None = None) -> None:
    """The gamma rule of every front end: gamma in [0, 0.5), and above 0 for ``ea``."""
    if not 0 <= gamma < 0.5:
        raise ConfigError(f"gamma {gamma} outside [0, 0.5)")
    if method == "ea" and gamma <= 0:
        raise ConfigError("ea requires gamma > 0 (gamma maps to alpha = (1-gamma)/gamma)")


def _method_keys(spec: dict, gammas, has_truth: bool) -> tuple[str, dict]:
    """A method spec's name and each key it reads, checked against its ``gammas`` and whether its pair has truth."""
    if not isinstance(spec, dict):
        raise ConfigError(f"method spec {spec!r} is not an object")
    name, keys = _spec_keys(METHODS, "method", spec.get("name"), spec)
    if not (gammas and isinstance(gammas, list) and all(isinstance(g, (int, float)) for g in gammas)):
        raise ConfigError(f"method {name!r} gammas {gammas!r} is not a non-empty list of numbers")
    for gamma in gammas:
        _check_gamma(gamma, name)
    if spec.get("restrict_k") is not None and not has_truth:
        raise ConfigError("restricted mapping sets require a pair with ground truth")
    return name, keys


def first_graph(family: str, keys: dict, seed: int) -> Graph:
    """The first graph of a ``family`` pair, drawn from its resolved ``keys`` (see :func:`_pair_keys`) at ``seed``."""
    if family in ("er", "er_sbm"):
        return erdos_renyi(keys["n"], keys["p"], seed)
    if family == "sbm":
        return stochastic_block_model(keys["block_sizes"], keys["density"], seed)
    if family == "regular":
        return random_regular(keys["n"], keys["d"], seed)
    return power_law(keys["n"], keys["m"], keys["n0"], seed)


def generate_pair(spec: dict, seed: int) -> tuple[Graph, Graph, Permutation | None]:
    """Build the (G1, G2, truth) triple for one cell.

    For single-family pairs, G2 is a relabeled, optionally noisy copy of G1
    and ``truth`` is the relabeling. The "er_sbm" family pairs an
    independent blockmodel against the first graph (no ground truth).
    """
    family, keys = _pair_keys(spec)
    g1 = first_graph(family, keys, child_seed(seed, STREAM_GRAPH))
    if family == "er_sbm":
        sizes, within = keys["block_sizes"], keys["within"]
        if len(within) != len(sizes):
            raise ValueError(f"er_sbm within {within!r} must hold one density per block of block_sizes {sizes!r}")
        density = np.full((len(sizes), len(sizes)), keys["cross"], dtype=np.float64)  # an int cross would truncate within
        np.fill_diagonal(density, within)
        g2 = stochastic_block_model(sizes, density, child_seed(seed, STREAM_NOISE))
        return g1, g2, None

    noise, pe = keys["noise"], keys["pe"]
    if noise == "none":
        noisy = g1
    elif noise == "model1":
        noisy = noise_model_I(g1, pe, child_seed(seed, STREAM_NOISE))
    else:
        p_clean = keys["p"] if "p" in keys else _density(g1)
        noisy = noise_model_II(g1, pe, p_clean, child_seed(seed, STREAM_NOISE))
    truth = random_permutation(g1.n, child_seed(seed, STREAM_PERMUTATION))
    g2 = apply_permutation(noisy, truth)
    return g1, g2, truth


def run_cell(pair_spec: dict, method_spec: dict, gamma: float, seed: int) -> dict:
    """Execute one (method, gamma, seed) cell and return its metrics record."""
    g1, g2, truth = generate_pair(pair_spec, seed)
    method = _method_keys(method_spec, [gamma], truth is not None)
    return solve_cell(g1, g2, truth, method, gamma, seed)[0]


def solve_cell(
    g1: Graph,
    g2: Graph,
    truth: Permutation | None,
    method: tuple[str, dict],
    gamma: float,
    seed: int,
    mapping_set: MappingSet | None = None,
    dump=None,
) -> tuple[dict, Assignment]:
    """The metrics record and mapping of one cell's solve on a given pair.

    ``method`` is the (name, keys) of :func:`_method_keys`, and ``seed`` the
    cell seed. ``mapping_set`` and ``dump`` are for ``ea`` only: a candidate
    set in place of every pair (``restrict_k``'s sample replaces it), and a
    callable given the score scheme and the mapping set (None: every pair)
    before the solve, whose time counts in ``wall_ms``.
    """
    name, keys = method
    start = time.perf_counter()
    if name == "ea":
        scheme = from_alpha((1 - gamma) / gamma, float(keys["eps"]))
        if keys["restrict_k"] is not None:
            mapping_set = sample_mapping_set(g1.n, truth, keys["restrict_k"], child_seed(seed, STREAM_MAPPING_SET))
        if dump is not None:
            dump(scheme, mapping_set)
        result = eigen_align(
            g1, g2, scheme, mapping_set, matching=keys["matching"], seed=child_seed(seed, STREAM_SOLVER)
        )
    elif name == "lra":
        result = low_rank_align(g1, g2, gamma, rank_k=keys["rank"], matching=keys["matching"])
    else:
        result = brute_force_qap(g1, g2, gamma)
    wall_ms = (time.perf_counter() - start) * 1000.0
    accuracy = node_accuracy(result.mapping, truth) if truth is not None else None
    scores = (result.matches, result.mismatches, result.neutrals, result.objective)
    return cell_record(name, gamma, seed, scores, accuracy, wall_ms), result.mapping


def _cell_worker(args: tuple[dict, dict, float, int]) -> dict:
    pair_spec, method_spec, gamma, seed = args
    try:
        return run_cell(pair_spec, method_spec, gamma, seed)
    except Exception as exc:  # per-cell failures become CSV rows
        return cell_record(method_spec.get("name", "?"), gamma, seed, error=f"{type(exc).__name__}: {exc}")


def validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if "pair" not in config:
        raise ConfigError("config is missing 'pair'")
    methods = config.get("methods")
    if not methods:
        raise ConfigError("config must list at least one method")
    if not isinstance(methods, list) or not all(isinstance(m, dict) for m in methods):
        raise ConfigError("'methods' must be a list of objects")
    family, _ = _pair_keys(config["pair"])
    if config.get("output") is not None and not isinstance(config["output"], str):
        raise ConfigError(f"'output' {config['output']!r} is not a path string")
    seeds = config.get("seeds")
    if not seeds:
        raise ConfigError("config must list at least one seed")
    if not isinstance(seeds, list):
        raise ConfigError("'seeds' must be a list of integers or digit strings")
    _parse_seeds(seeds)
    for method in methods:
        _method_keys(method, method.get("gammas"), family != "er_sbm")


def parse_seed(value, name: str = "seed") -> int:
    """A cell seed: a non-negative integer that is not a boolean, or a string of decimal digits."""
    if _is_int(value) and value >= 0:
        return value
    if isinstance(value, str) and value.isascii() and value.isdecimal():
        return int(value)
    raise ConfigError(f"{name} {value!r} is not a non-negative integer")


def _parse_seeds(seeds: list) -> list[int]:
    """Cell seeds, each by :func:`parse_seed`, that must be distinct."""
    seeds = [parse_seed(s) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    return seeds


def run_sweep(config: dict, jobs: int = 1, seeds_override: list[int] | None = None) -> list[dict]:
    """All cell records of the sweep, in deterministic config order."""
    validate_config(config)
    seeds = _parse_seeds(config["seeds"] if seeds_override is None else seeds_override)
    pair_spec = config["pair"]
    cells = [
        (pair_spec, method, float(gamma), seed)
        for method in config["methods"]
        for gamma in method["gammas"]
        for seed in seeds
    ]
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_cell_worker, cells))
    else:
        rows = [_cell_worker(cell) for cell in cells]
    return rows


def _stat(values: list, stat: str) -> float | None:
    if not values:
        return None
    if stat == "mean":
        return float(np.mean(values))
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean and sample-std rows per (method, gamma), over successful cells."""
    groups: dict[tuple[str, float], list[dict]] = {}
    for row in rows:
        ok_rows = groups.setdefault((row["method"], row["gamma"]), [])
        if not row["error"]:
            ok_rows.append(row)
    out = []
    for (method, gamma), ok_rows in groups.items():
        # the numeric columns: the four scores, accuracy and wall_ms
        columns = [[r[col] for r in ok_rows if r[col] is not None] for col in CSV_COLUMNS[3:-1]]
        for stat in ("mean", "std"):
            *scores, accuracy, wall_ms = (_stat(values, stat) for values in columns)
            out.append(cell_record(method, gamma, stat, scores, accuracy, wall_ms))
    return out


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sweep_rows_to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows + aggregate_rows(rows):
        writer.writerow([_format_cell(row[col]) for col in CSV_COLUMNS])
    return buffer.getvalue()
