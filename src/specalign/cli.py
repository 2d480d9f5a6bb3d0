"""Command-line driver: graph generation, alignment, evaluation, and sweeps.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
The ``SPECALIGN_SEED`` environment variable, when set, overrides the seed
list of sweep configs (single-seed smoke runs).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from .align import MATCHING_MODES, brute_force_qap, eigen_align, low_rank_align
from .experiments import (
    NOISE_MODELS,
    PAIR_FAMILIES,
    ConfigError,
    cell_record,
    generate_pair,
    parse_seed,
    run_sweep,
    sweep_rows_to_csv,
)
from .graph import Graph, Permutation, load_edge_list, parse_id_pair, write_edge_list
from .matching import Assignment
from .metrics import count_alignment, generalized_objective, node_accuracy
from .randgen import erdos_renyi, power_law, random_regular, stochastic_block_model
from .score import MappingSet, ScoreScheme, build_alignment_matrix, from_alpha

USAGE_EXIT = 1
RUNTIME_EXIT = 2
POWERLAW_DEFAULTS = PAIR_FAMILIES["powerlaw"]  # of --m and --n0


@click.group()
def cli():
    """Spectral graph alignment toolkit."""


# ---------------------------------------------------------------- generate

@cli.group()
def generate():
    """Write synthetic graphs (edge list + JSON sidecar)."""


def _write_sidecar(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _single_graph_command(family: str, params: dict, g: Graph, seed: int, out: str) -> None:
    prefix = Path(out)
    prefix.with_suffix(".el").write_text(write_edge_list(g))
    _write_sidecar(
        prefix.with_suffix(".json"),
        {"family": family, "params": params, "seed": seed, "n": g.n, "edges": g.edge_count},
    )
    click.echo(f"wrote {prefix.with_suffix('.el')} ({g.n} nodes, {g.edge_count} edges)")


@generate.command("er")
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default="er", show_default=True, help="Output path prefix.")
def generate_er(n, p, seed, out):
    """Erdos-Renyi graph G(n, p)."""
    _single_graph_command("er", {"n": n, "p": p}, erdos_renyi(n, p, seed), seed, out)


def _parse_list(text: str, convert, option: str) -> list:
    """A comma-separated option value as a list of numbers; a bad entry is a usage error."""
    try:
        return [convert(item) for item in text.split(",")]
    except ValueError:
        raise click.UsageError(f"{option} must list comma-separated {convert.__name__} values, got {text!r}")


@generate.command("sbm")
@click.option("--sizes", type=str, required=True, help="Comma-separated block sizes, e.g. 25,25.")
@click.option("--within", type=str, required=True, help="Comma-separated within-block densities.")
@click.option("--cross", type=float, required=True, help="Cross-block density.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default="sbm", show_default=True)
def generate_sbm(sizes, within, cross, seed, out):
    """Stochastic block model graph."""
    block_sizes = _parse_list(sizes, int, "--sizes")
    within_densities = _parse_list(within, float, "--within")
    if len(within_densities) != len(block_sizes):
        raise click.UsageError("--within must list one density per block")
    density = np.full((len(block_sizes), len(block_sizes)), cross)
    np.fill_diagonal(density, within_densities)
    g = stochastic_block_model(block_sizes, density, seed)
    _single_graph_command("sbm", {"block_sizes": block_sizes, "density": density.tolist()}, g, seed, out)


@generate.command("regular")
@click.option("--n", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default="regular", show_default=True)
def generate_regular(n, d, seed, out):
    """Random d-regular graph."""
    _single_graph_command("regular", {"n": n, "d": d}, random_regular(n, d, seed), seed, out)


@generate.command("powerlaw")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, default=POWERLAW_DEFAULTS["m"], show_default=True, help="Edges per new node.")
@click.option("--n0", type=int, default=POWERLAW_DEFAULTS["n0"], show_default=True, help="Seed subgraph size.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default="powerlaw", show_default=True)
def generate_powerlaw(n, m, n0, seed, out):
    """Preferential-attachment graph."""
    _single_graph_command("powerlaw", {"n": n, "m": m, "n0": n0}, power_law(n, m, n0, seed), seed, out)


@generate.command("pair")
@click.option("--family", type=click.Choice(["er", "regular", "powerlaw", "er_sbm"]), required=True)
@click.option("--n", type=int, default=50, show_default=True)
@click.option("--p", type=float, default=0.1, show_default=True, help="Edge density (er, er_sbm).")
@click.option("--d", type=int, default=5, show_default=True, help="Degree (regular).")
@click.option("--m", type=int, default=POWERLAW_DEFAULTS["m"], show_default=True, help="Edges per new node (powerlaw).")
@click.option("--n0", type=int, default=POWERLAW_DEFAULTS["n0"], show_default=True, help="Seed subgraph size (powerlaw).")
@click.option("--noise", type=click.Choice(NOISE_MODELS), default="none", show_default=True)
@click.option("--pe", type=float, default=0.0, show_default=True, help="Noise probability.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default="pair", show_default=True, help="Output path prefix.")
def generate_pair_cmd(family, n, p, d, m, n0, noise, pe, seed, out):
    """A graph pair (second graph relabeled, optionally noisy) plus truth."""
    spec = {"family": family, "n": n, "p": p, "d": d, "m": m, "n0": n0, "noise": noise, "pe": pe}
    g1, g2, truth = generate_pair(spec, seed)
    prefix = Path(out)
    path1 = Path(f"{prefix}_g1.el")
    path2 = Path(f"{prefix}_g2.el")
    path1.write_text(write_edge_list(g1))
    path2.write_text(write_edge_list(g2))
    _write_sidecar(
        Path(f"{prefix}.json"),
        {
            "spec": spec,
            "seed": seed,
            "truth": None if truth is None else truth.mapping.tolist(),
            "files": [str(path1), str(path2)],
        },
    )
    click.echo(f"wrote {path1}, {path2} ({g1.n} vs {g2.n} nodes)")


# ------------------------------------------------------------------- align

def _load_inputs(g1_path: str, g2_path: str, truth_path: str | None) -> tuple[Graph, Graph, Permutation | None]:
    """The two graphs, and the truth of a ``generate pair`` sidecar: an object whose ``truth`` is a list or null."""
    g1, g2 = (load_edge_list(Path(path).read_text()) for path in (g1_path, g2_path))
    if truth_path is None:
        return g1, g2, None
    sidecar = json.loads(Path(truth_path).read_text())
    if not isinstance(sidecar, dict) or "truth" not in sidecar:
        raise ValueError(f"truth file {truth_path} is not an object with a 'truth' list or null")
    truth = None if sidecar["truth"] is None else Permutation(np.asarray(sidecar["truth"], dtype=np.int64))
    if truth is not None and truth.n != g1.n:
        raise ValueError(f"truth file {truth_path} maps {truth.n} nodes, but {g1_path} has {g1.n}")
    return g1, g2, truth


def _read_pairs(path: str) -> list[tuple[int, int]]:
    """Node-id pairs of a two-column file, skipping blank and ``#`` lines."""
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return [
        parse_id_pair(line, lineno)
        for lineno, line in enumerate(lines, start=1)
        if line and not line.startswith("#")
    ]


def _echo_record(record: dict) -> None:
    """Print a metrics record as one JSON line: the sweep row without ``error``."""
    del record["error"]
    click.echo(json.dumps(record, sort_keys=True))


def _emit_result(result, truth, out, started) -> None:
    scores = (result.matches, result.mismatches, result.neutrals, result.objective)
    accuracy = None if truth is None else node_accuracy(result.mapping, truth)
    wall_ms = (time.perf_counter() - started) * 1000.0
    _echo_record(cell_record(result.method, result.gamma, result.seed, scores, accuracy, wall_ms))
    if out:
        lines = [f"{i}\t{j}" for i, j in zip(result.mapping.rows.tolist(), result.mapping.cols.tolist())]
        Path(out).write_text("\n".join(lines) + "\n")


@cli.group()
def align():
    """Align two graphs and print a metrics record."""


@align.command("ea")
@click.argument("g1_path")
@click.argument("g2_path")
@click.option("--alpha", type=float, default=None, help="Match-score parameter (> 1).")
@click.option("--eps", type=float, default=0.001, show_default=True)
@click.option("--s1", type=float, default=None, help="Explicit match score.")
@click.option("--s2", type=float, default=None, help="Explicit neutral score.")
@click.option("--s3", type=float, default=None, help="Explicit mismatch score.")
@click.option("--matching", type=click.Choice(MATCHING_MODES), default="exact", show_default=True)
@click.option("--restrict", type=str, default=None, help="Allowed-pairs file (two columns).")
@click.option("--seed", type=int, default=0, show_default=True, help="Eigensolver start seed.")
@click.option("--truth", type=str, default=None, help="Sidecar JSON with the true permutation.")
@click.option("--out", type=str, default=None, help="Write the mapping as TSV.")
@click.option("--dump-alignment", type=str, default=None, help="Debug: write the dense alignment matrix as CSV.")
def align_ea(g1_path, g2_path, alpha, eps, s1, s2, s3, matching, restrict, seed, truth, out, dump_alignment):
    """Leading-eigenvector alignment."""
    started = time.perf_counter()
    g1, g2, truth = _load_inputs(g1_path, g2_path, truth)
    if alpha is not None:
        scheme = from_alpha(alpha, eps)
    elif None not in (s1, s2, s3):
        scheme = ScoreScheme(s1, s2, s3)
    else:
        raise click.UsageError("provide --alpha or all of --s1/--s2/--s3")
    mapping_set = None
    if restrict is not None:
        # object ids, as in eval: an id past int64 reaches the range check as written
        pairs = np.array(sorted(set(_read_pairs(restrict))), dtype=object).reshape(-1, 2)
        mapping_set = MappingSet(g1.n, g2.n, rows=pairs[:, 0], cols=pairs[:, 1])
    if dump_alignment:
        dense_set = MappingSet.full(g1.n, g2.n) if mapping_set is None else mapping_set
        a = build_alignment_matrix(g1, g2, scheme, dense_set)
        np.savetxt(dump_alignment, a, delimiter=",")
    result = eigen_align(g1, g2, scheme, mapping_set, matching=matching, seed=seed)
    _emit_result(result, truth, out, started)


@align.command("lra")
@click.argument("g1_path")
@click.argument("g2_path")
@click.option("--gamma", type=float, required=True)
@click.option("--rank", type=int, default=3, show_default=True)
@click.option("--matching", type=click.Choice(MATCHING_MODES), default="exact", show_default=True)
@click.option("--truth", type=str, default=None)
@click.option("--out", type=str, default=None)
def align_lra(g1_path, g2_path, gamma, rank, matching, truth, out):
    """Low-rank spectral alignment."""
    started = time.perf_counter()
    g1, g2, truth = _load_inputs(g1_path, g2_path, truth)
    result = low_rank_align(g1, g2, gamma, rank_k=rank, matching=matching)
    _emit_result(result, truth, out, started)


@align.command("brute")
@click.argument("g1_path")
@click.argument("g2_path")
@click.option("--gamma", type=float, default=0.0, show_default=True)
@click.option("--truth", type=str, default=None)
@click.option("--out", type=str, default=None)
def align_brute(g1_path, g2_path, gamma, truth, out):
    """Exact alignment by permutation enumeration (small graphs only)."""
    started = time.perf_counter()
    g1, g2, truth = _load_inputs(g1_path, g2_path, truth)
    result = brute_force_qap(g1, g2, gamma)
    _emit_result(result, truth, out, started)


# -------------------------------------------------------------------- eval

@cli.command("eval")
@click.argument("g1_path")
@click.argument("g2_path")
@click.argument("mapping_tsv")
@click.option("--gamma", type=float, default=0.0, show_default=True)
@click.option("--truth", type=str, default=None)
def eval_cmd(g1_path, g2_path, mapping_tsv, gamma, truth):
    """Recount metrics from a stored mapping TSV."""
    g1, g2, truth = _load_inputs(g1_path, g2_path, truth)
    # object ids: an id past int64 reaches the Assignment check unconverted
    ids = np.array(_read_pairs(mapping_tsv), dtype=object).reshape(-1, 2)
    mapping = Assignment(ids[:, 0], ids[:, 1], total_weight=float("nan"))
    scores = (*count_alignment(g1, g2, mapping), generalized_objective(g1, g2, mapping, gamma))
    accuracy = None if truth is None else node_accuracy(mapping, truth)
    _echo_record(cell_record("eval", gamma, None, scores, accuracy))


# ------------------------------------------------------------------- sweep

@cli.command("sweep")
@click.argument("config_path")
@click.option("--out", type=str, default=None, help="CSV output path (defaults to config 'output').")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True, help="Parallel worker processes.")
def sweep_cmd(config_path, out, jobs):
    """Run the cross product of (method, gamma, seed) from a JSON config."""
    try:
        config = json.loads(Path(config_path).read_text())
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"config is not valid JSON: {exc}")
    env_seed = os.environ.get("SPECALIGN_SEED")
    try:
        seeds_override = None if env_seed is None else [parse_seed(env_seed, "SPECALIGN_SEED")]
        rows = run_sweep(config, jobs=jobs, seeds_override=seeds_override)
    except ConfigError as exc:
        raise click.UsageError(str(exc))
    csv_text = sweep_rows_to_csv(rows)
    target = out or config.get("output")
    if target:
        Path(target).write_text(csv_text)
        click.echo(f"wrote {target} ({len(rows)} cells)")
    else:
        click.echo(csv_text, nl=False)
    if rows and all(row["error"] for row in rows):
        raise RuntimeError("all sweep cells failed")


# -------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    """Entry point mapping errors to the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        sys.exit(USAGE_EXIT)
    except click.exceptions.Abort:  # a RuntimeError, so it must precede the runtime branch
        sys.exit(USAGE_EXIT)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(RUNTIME_EXIT)


if __name__ == "__main__":
    main()
