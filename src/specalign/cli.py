"""Command-line driver: graph generation, alignment, evaluation, and sweeps.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
The ``SPECALIGN_SEED`` environment variable, when set, overrides the seed
list of sweep configs (single-seed smoke runs).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from .experiments import (
    ConfigError,
    _check_gamma,
    _method_keys,
    _pair_keys,
    cell_record,
    first_graph,
    generate_pair,
    parse_seed,
    run_sweep,
    solve_cell,
    sweep_rows_to_csv,
)
from .graph import Graph, Permutation, load_edge_list, parse_id_pair, write_edge_list
from .matching import Assignment
from .metrics import count_alignment, generalized_objective, node_accuracy
from .score import MappingSet, build_alignment_matrix

USAGE_EXIT = 1
RUNTIME_EXIT = 2


@click.group()
def cli():
    """Spectral graph alignment toolkit."""


# ---------------------------------------------------------------- generate

@cli.group()
def generate():
    """Write synthetic graphs (edge list + JSON sidecar)."""


def _write_sidecar(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _json(text: str, what: str):
    """``text`` parsed as JSON; text that is not JSON is a usage error naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"{what} is not valid JSON: {exc}")


def _spec_option(help_text: str):
    """A required ``--spec`` option, parsed as JSON."""
    return click.option("--spec", required=True, callback=lambda ctx, param, text: _json(text, "--spec"), help=help_text)


SPEC_OPTION = _spec_option('Pair spec as JSON text, as a sweep config\'s "pair" holds it.')

SEED_OPTION = click.option(
    "--seed", default="0", show_default=True, metavar="INTEGER", callback=lambda ctx, param, text: parse_seed(text),
    help="Cell seed: a non-negative integer.",
)


@generate.command("graph")
@SPEC_OPTION
@SEED_OPTION
@click.option("--out", type=str, default="graph", show_default=True, help="Output path prefix.")
def generate_graph_cmd(spec, seed, out):
    """The first graph of a pair spec, drawn at the seed itself (a pair draws it at a child seed)."""
    family, keys = _pair_keys(spec)
    g = first_graph(family, keys, seed)
    prefix = Path(out)
    prefix.with_suffix(".el").write_text(write_edge_list(g))
    _write_sidecar(
        prefix.with_suffix(".json"),
        {"spec": {"family": family, **keys}, "seed": seed, "n": g.n, "edges": g.edge_count},
    )
    click.echo(f"wrote {prefix.with_suffix('.el')} ({g.n} nodes, {g.edge_count} edges)")


@generate.command("pair")
@SPEC_OPTION
@SEED_OPTION
@click.option("--out", type=str, default="pair", show_default=True, help="Output path prefix.")
def generate_pair_cmd(spec, seed, out):
    """A sweep's graph pair at the seed, plus its truth; keys left out take the family's defaults."""
    family, keys = _pair_keys(spec)
    spec = {"family": family, **keys}
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
    ids = sidecar["truth"]
    if ids is None:
        return g1, g2, None
    # type, not isinstance: a JSON boolean is no node id
    if not (isinstance(ids, list) and all(type(i) is int for i in ids) and sorted(ids) == list(range(len(ids)))):
        raise ValueError(f"truth file {truth_path} 'truth' is not a permutation (the integers 0 to n - 1, each once)")
    if len(ids) != g1.n:
        raise ValueError(f"truth file {truth_path} maps {len(ids)} nodes, but {g1_path} has {g1.n}")
    return g1, g2, Permutation(ids)


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


@cli.command("align")
@click.argument("g1_path")
@click.argument("g2_path")
@_spec_option('Method spec as JSON text, as an entry of a sweep config\'s "methods" holds it, without "gammas".')
@click.option("--gamma", type=float, required=True, help="Mismatch-penalty weight in [0, 0.5).")
@SEED_OPTION
@click.option("--truth", type=str, default=None, help="Sidecar JSON with the true permutation.")
@click.option("--out", type=str, default=None, help="Write the mapping as TSV.")
@click.option("--restrict", type=str, default=None, help="Allowed-pairs file (two columns); ea without restrict_k.")
@click.option("--dump-alignment", type=str, default=None, help="Debug: write ea's dense alignment matrix as CSV.")
def align_cmd(g1_path, g2_path, spec, gamma, seed, truth, out, restrict, dump_alignment):
    """Run one sweep cell on two edge lists and print its metrics record."""
    if isinstance(spec, dict) and "gammas" in spec:
        raise click.UsageError("--spec holds gammas; align runs the one gamma of --gamma")
    g1, g2, truth = _load_inputs(g1_path, g2_path, truth)
    name, keys = method = _method_keys(spec, [gamma], truth is not None)
    if name != "ea" and (restrict is not None or dump_alignment is not None):
        raise click.UsageError(f"--restrict and --dump-alignment are for ea, not {name!r}")
    if restrict is not None and keys["restrict_k"] is not None:
        raise click.UsageError("--restrict and the spec's restrict_k both set the candidate set; give one")
    mapping_set = dump = None
    if restrict is not None:
        # object ids, as in eval: an id past int64 reaches the range check as written
        pairs = np.array(sorted(set(_read_pairs(restrict))), dtype=object).reshape(-1, 2)
        mapping_set = MappingSet(g1.n, g2.n, rows=pairs[:, 0], cols=pairs[:, 1])
    if dump_alignment is not None:
        def dump(scheme, candidates):
            candidates = MappingSet.full(g1.n, g2.n) if candidates is None else candidates
            np.savetxt(dump_alignment, build_alignment_matrix(g1, g2, scheme, candidates), delimiter=",")
    record, mapping = solve_cell(g1, g2, truth, method, gamma, seed, mapping_set, dump)
    _echo_record(record)
    if out:
        lines = [f"{i}\t{j}" for i, j in zip(mapping.rows.tolist(), mapping.cols.tolist())]
        Path(out).write_text("\n".join(lines) + "\n")


# -------------------------------------------------------------------- eval

@cli.command("eval")
@click.argument("g1_path")
@click.argument("g2_path")
@click.argument("mapping_tsv")
@click.option("--gamma", type=float, default=0.0, show_default=True)
@click.option("--truth", type=str, default=None)
def eval_cmd(g1_path, g2_path, mapping_tsv, gamma, truth):
    """Recount metrics from a stored mapping TSV."""
    _check_gamma(gamma)
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
    config = _json(Path(config_path).read_text(), "config")
    env_seed = os.environ.get("SPECALIGN_SEED")
    seeds_override = None if env_seed is None else [parse_seed(env_seed, "SPECALIGN_SEED")]
    rows = run_sweep(config, jobs=jobs, seeds_override=seeds_override)
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
    except ConfigError as exc:  # a ValueError, so it must precede the runtime branch
        click.UsageError(str(exc)).show()
        sys.exit(USAGE_EXIT)
    except click.exceptions.Abort:  # a RuntimeError, so it must precede the runtime branch
        sys.exit(USAGE_EXIT)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(RUNTIME_EXIT)


if __name__ == "__main__":
    main()
