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
from .score import from_alpha

__all__ = [
    "ConfigError",
    "cell_record",
    "child_seed",
    "generate_pair",
    "parse_seed",
    "run_cell",
    "run_sweep",
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

DEFAULT_EA_EPS = 0.001


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


REQUIRED = object()  # marks a pair key with no default; unlike None, no JSON value equals it

# each pair family with every spec key it reads and that key's default
PAIR_FAMILIES = {
    "er": {"n": REQUIRED, "p": REQUIRED},
    "sbm": {"block_sizes": REQUIRED, "density": REQUIRED},
    "regular": {"n": REQUIRED, "d": REQUIRED},
    "powerlaw": {"n": REQUIRED, "m": 3, "n0": 5},
    "er_sbm": {"n": 25, "p": 0.1, "block_sizes": [25, 25], "within": [0.1, 0.3], "cross": 0.05},
}
NOISE_MODELS = ("none", "model1", "model2")


def _pair_keys(spec: dict) -> tuple[str, dict]:
    """A pair spec's family and each key that family reads, from the spec or the family's default."""
    family = spec.get("family")
    if not isinstance(family, str) or family not in PAIR_FAMILIES:  # a JSON list is unknown, not unhashable
        raise ConfigError(f"pair family {family!r} is not one of {', '.join(PAIR_FAMILIES)}")
    keys = {key: spec.get(key, default) for key, default in PAIR_FAMILIES[family].items()}
    for key, value in keys.items():
        if value is REQUIRED:
            raise ConfigError(f"pair family {family!r} requires {key!r}")
    if spec.get("noise", "none") not in NOISE_MODELS:
        raise ConfigError(f"pair noise {spec['noise']!r} is not one of {', '.join(NOISE_MODELS)}")
    return family, keys


def generate_pair(spec: dict, seed: int) -> tuple[Graph, Graph, Permutation | None]:
    """Build the (G1, G2, truth) triple for one cell.

    For single-family pairs, G2 is a relabeled, optionally noisy copy of G1
    and ``truth`` is the relabeling. The "er_sbm" family pairs an
    independent blockmodel against the first graph (no ground truth).
    """
    family, keys = _pair_keys(spec)
    graph_seed = child_seed(seed, STREAM_GRAPH)
    if family in ("er", "er_sbm"):
        g1 = erdos_renyi(int(keys["n"]), float(keys["p"]), graph_seed)
    elif family == "sbm":
        g1 = stochastic_block_model([int(s) for s in keys["block_sizes"]], keys["density"], graph_seed)
    elif family == "regular":
        g1 = random_regular(int(keys["n"]), int(keys["d"]), graph_seed)
    else:
        g1 = power_law(int(keys["n"]), int(keys["m"]), int(keys["n0"]), graph_seed)
    if family == "er_sbm":
        sizes = [int(s) for s in keys["block_sizes"]]
        density = np.full((len(sizes), len(sizes)), float(keys["cross"]))
        np.fill_diagonal(density, [float(x) for x in keys["within"]])
        g2 = stochastic_block_model(sizes, density, child_seed(seed, STREAM_NOISE))
        return g1, g2, None

    noise = spec.get("noise", "none")
    pe = float(spec.get("pe", 0.0))
    if noise == "none":
        noisy = g1
    elif noise == "model1":
        noisy = noise_model_I(g1, pe, child_seed(seed, STREAM_NOISE))
    else:
        p_clean = float(keys["p"]) if "p" in keys else _density(g1)
        noisy = noise_model_II(g1, pe, p_clean, child_seed(seed, STREAM_NOISE))
    truth = random_permutation(g1.n, child_seed(seed, STREAM_PERMUTATION))
    g2 = apply_permutation(noisy, truth)
    return g1, g2, truth


def run_cell(pair_spec: dict, method_spec: dict, gamma: float, seed: int) -> dict:
    """Execute one (method, gamma, seed) cell and return its metrics record."""
    name = method_spec.get("name")
    g1, g2, truth = generate_pair(pair_spec, seed)
    start = time.perf_counter()
    if name == "ea":
        eps = float(method_spec.get("eps", DEFAULT_EA_EPS))
        if gamma <= 0:
            raise ConfigError("ea requires gamma > 0 (gamma maps to alpha = (1-gamma)/gamma)")
        scheme = from_alpha((1 - gamma) / gamma, eps)
        restrict_k = method_spec.get("restrict_k")
        mapping_set = None
        if restrict_k is not None:
            if truth is None:
                raise ConfigError("restricted mapping sets require a pair with ground truth")
            mapping_set = sample_mapping_set(g1.n, truth, int(restrict_k), child_seed(seed, STREAM_MAPPING_SET))
        result = eigen_align(
            g1,
            g2,
            scheme,
            mapping_set,
            matching=method_spec.get("matching", "exact"),
            seed=child_seed(seed, STREAM_SOLVER),
        )
    elif name == "lra":
        result = low_rank_align(
            g1,
            g2,
            gamma,
            rank_k=int(method_spec.get("rank", 3)),
            matching=method_spec.get("matching", "exact"),
        )
    elif name == "brute":
        result = brute_force_qap(g1, g2, gamma)
    else:
        raise ConfigError(f"unknown method {name!r}")
    wall_ms = (time.perf_counter() - start) * 1000.0
    accuracy = node_accuracy(result.mapping, truth) if truth is not None else None
    scores = (result.matches, result.mismatches, result.neutrals, result.objective)
    return cell_record(name, gamma, seed, scores, accuracy, wall_ms)


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
    if not isinstance(config["pair"], dict):
        raise ConfigError("'pair' must be an object")
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
        if method.get("name") not in ("ea", "lra", "brute"):
            raise ConfigError(f"unknown method {method.get('name')!r}")
        gammas = method.get("gammas")
        if not gammas:
            raise ConfigError(f"method {method.get('name')!r} must list gammas")
        if not isinstance(gammas, list) or not all(isinstance(g, (int, float)) for g in gammas):
            raise ConfigError(f"method {method.get('name')!r} gammas must be a list of numbers")
        for gamma in gammas:
            if not 0 <= gamma < 0.5:
                raise ConfigError(f"gamma {gamma} outside [0, 0.5)")
            if method.get("name") == "ea" and gamma <= 0:
                raise ConfigError("ea gammas must be positive (gamma maps to alpha)")
        if method.get("matching", "exact") not in MATCHING_MODES:
            modes = " or ".join(map(repr, MATCHING_MODES))
            raise ConfigError(f"method {method.get('name')!r} matching {method['matching']!r} is not {modes}")
        _check_method_fields(method)
        if method.get("restrict_k") is not None and family == "er_sbm":
            raise ConfigError("restricted mapping sets require a pair with ground truth")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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


def _check_method_fields(method: dict) -> None:
    """Reject a ``rank``, ``eps`` or ``restrict_k`` that every cell would fail on."""
    name = method["name"]
    rank = method.get("rank")
    if rank is not None and not (_is_int(rank) and 1 <= rank <= SIGN_ENUM_MAX_RANK):
        raise ConfigError(f"method {name!r} rank {rank!r} is not an integer in [1, {SIGN_ENUM_MAX_RANK}]")
    eps = method.get("eps")
    if eps is not None and not ((_is_int(eps) or isinstance(eps, float)) and eps > 0):
        raise ConfigError(f"method {name!r} eps {eps!r} is not a positive number")
    restrict_k = method.get("restrict_k")
    if restrict_k is not None and not (_is_int(restrict_k) and restrict_k > 0):
        raise ConfigError(f"method {name!r} restrict_k {restrict_k!r} is not a positive integer")


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
