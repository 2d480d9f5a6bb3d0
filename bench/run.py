"""Benchmark of specalign sweeps: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 bench/run.py --workload fig3_sweep --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload fig3_sweep --seed 0 --seconds 55 --trace 1

The workload runs in this one process through the public sweep path, one
cell at a time: ``experiments.run_sweep(cell, jobs=1, seeds_override=[seed])``
for each cell of the workload (see workloads.py), with BLAS
pinned to one thread. After imports and a warm-up at tiny size, it repeats
rounds over the workload's cells until ``--seconds`` have passed: a cell
is started only while its median time so far still fits, so the run ends
on time, and the last round may stop part way. Every round, whole or part,
is checked (see check.py). ``--trace 1`` runs one untraced round, then
at least two whole traced rounds, more while they still end within
``--seconds``, and reports the per-layer metrics of the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (cells run), ``failed`` (cells that errored or
failed a check) and ``metrics``. The exit code is 0 when every check
passed, 1 when one failed, and 2 when the program cannot be imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from check import digests, failed_cells, load_reference, record_reference  # noqa: E402
from layers import COUNTS, LAYERS, PER_LAYER, LayerMissingError, Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, Cell  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # set-up is timed in this process and in SETUP_SAMPLES - 1 fresh ones
TAIL_BEYOND = 10  # the tail percentile is the highest one with this many cells above it

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cell_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy_mean", "frac", "higher"),
]


class ProgramMissingError(RuntimeError):
    """specalign cannot be imported from the checkout's src/ directory."""


@dataclass
class Round:
    """One round over the workload's cells, or its leading cells when the run ended part way."""

    tracer: Tracer | None  # None for an untraced round
    seconds: list[float] = field(default_factory=list)  # per cell, in workload order
    rows: list[dict] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)  # cell times at the reference host speed (calibrate.py)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0, help="measure rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the workload at tiny size (n=12), without references")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-reference", action="store_true", help="run one round and store its CSV digests as this seed's reference"
    )
    return parser.parse_args(argv)


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import specalign.experiments as experiments
    except ImportError as exc:
        raise ProgramMissingError(f"cannot import specalign from {src}: {exc}") from exc
    if Path(experiments.__file__).resolve().parent.parent != src.resolve():
        raise ProgramMissingError(f"specalign was imported from {experiments.__file__}, not from {src}")
    return experiments


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None  # not a git checkout
    return out.stdout.strip()


def run_round(
    experiments, cells: list[Cell], seed: int, tracer: Tracer | None, calibrator: Calibrator | None = None, fits=lambda k: True
) -> Round:
    """Time each cell in workload order, stopping before the first cell k for which ``fits(k)`` is false.

    With a calibrator, each cell's time is also kept scaled to the reference host speed.
    """
    rnd = Round(tracer)
    with tracer.patched() if tracer else contextlib.nullcontext():
        for k, cell in enumerate(cells):
            if not fits(k):
                break
            start = time.perf_counter()
            rnd.rows += experiments.run_sweep(cell.sweep, jobs=1, seeds_override=[seed])
            rnd.seconds.append(time.perf_counter() - start)
            if calibrator:
                rnd.scaled.append(calibrator.scaled(rnd.seconds[-1]))
    return rnd


def part_digests(experiments, cells: list[Cell], rows: list[dict]) -> dict[str, tuple[list[int], dict]]:
    """Per part of the workload: the indices of its cells among ``rows``, and the digests of its sweep CSVs.

    The CSVs are one per config, as ``run_sweep`` would write them from these rows.
    """
    by_part: dict[str, dict[int, list[int]]] = {}
    for k, cell in enumerate(cells[: len(rows)]):
        by_part.setdefault(cell.part, {}).setdefault(cell.config, []).append(k)
    out = {}
    for part, by_config in by_part.items():
        texts = [experiments.sweep_rows_to_csv([rows[k] for k in ks]) for ks in by_config.values()]
        out[part] = ([k for ks in by_config.values() for k in ks], digests(texts, [len(ks) for ks in by_config.values()]))
    return out


def check_round(experiments, cells: list[Cell], rows: list[dict], mapped: list[int], references: dict) -> tuple[set[int], list[str]]:
    """Indices of the round's failed cells and the reasons, each part checked against its own reference."""
    bad: set[int] = set()
    problems: list[str] = []
    for part, (ks, got) in part_digests(experiments, cells, rows).items():
        part_bad, part_problems = failed_cells([rows[k] for k in ks], [mapped[k] for k in ks], got, references.get(part))
        bad |= {ks[j] for j in part_bad}
        problems += [f"{part}: {p}" for p in part_problems]
    return bad, problems


def setup_probes(args) -> list[dict]:
    """Set-up seconds, raw and scaled, of fresh processes doing this run's imports, config load and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it; the maximum when none has."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND values above it
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    try:
        experiments = import_program()
    except ProgramMissingError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    try:
        return run(args, experiments)
    except LayerMissingError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


def run(args, experiments) -> int:
    workload = WORKLOADS[args.workload]
    cells = workload.cells(smoke=args.smoke)
    sizes = {}  # per config: nodes a full mapping covers, min(n1, n2) of its pair
    for cell in cells:
        if cell.config not in sizes:
            g1, g2, _ = experiments.generate_pair(cell.sweep["pair"], args.seed)
            sizes[cell.config] = min(g1.n, g2.n)
    mapped = [sizes[cell.config] for cell in cells]
    references = {} if args.smoke else {p.name: load_reference(p.name, args.seed) for p in workload.parts}
    for config in workload.load(smoke=True):  # warm-up: imports, lazy set-up, caches
        experiments.sweep_rows_to_csv(experiments.run_sweep(config, jobs=1, seeds_override=[args.seed]))
    setup_s = time.perf_counter() - T_START
    calibrator = Calibrator()
    setup = {"setup_s": setup_s, "scaled_s": calibrator.scaled(setup_s)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if args.record_reference:
        return record(experiments, cells, args.seed, mapped)

    rounds: list[Round] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()

    def fits(k: int) -> bool:
        """Whether cell k, at its median time so far, still ends within the run."""
        done = [r.seconds[k] for r in rounds if len(r.seconds) > k]
        return not done or time.perf_counter() - start + statistics.median(done) <= args.seconds

    while True:
        traced = args.trace == 1 and len(rounds) > 0  # a traced run: one untraced round, then whole traced ones
        if args.trace == 0:
            rnd = run_round(experiments, cells, args.seed, None, calibrator, fits)
        else:
            rnd = run_round(experiments, cells, args.seed, Tracer(LAYERS) if traced else None)
        if not rnd.rows:
            break
        bad, round_problems = check_round(experiments, cells, rnd.rows, mapped, references)
        attempted += len(rnd.rows)
        failed += len(bad)
        problems += [f"round {len(rounds)}: {p}" for p in round_problems]
        rounds.append(rnd)
        if len(rnd.rows) < len(cells):
            break
        if args.trace == 1 and len(rounds) >= 3 and time.perf_counter() - start + sum(rnd.seconds) > args.seconds:
            break  # one untraced and two traced rounds done, and another would not end in time

    details = {
        "workload": workload.name,
        "smoke": args.smoke,
        "references": sorted(name for name, ref in references.items() if ref is not None),
        "rounds": len(rounds),
        "measured_s": sum(sum(r.seconds) for r in rounds),
    }
    if args.trace == 0:
        table, values = END_TO_END, end_to_end(rounds, len(cells), [setup] + setup_probes(args), details)
    else:
        table, values = PER_LAYER, per_layer(rounds, workload.layers, details, problems)
    details["fail_frac"] = failed / attempted

    correct = not problems
    print(json.dumps({"environment": environment(args.seed)}))
    print(json.dumps({"details": details}))
    for name, unit, better in table:
        print(f"{name} = {values[name]} {unit} ({better} is better)")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def record(experiments, cells: list[Cell], seed: int, mapped: list[int]) -> int:
    """Run one round and store each part's digests as the seed's reference, if it passes the invariants."""
    rnd = run_round(experiments, cells, seed, None)
    bad, problems = check_round(experiments, cells, rnd.rows, mapped, {})
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if bad:
        return 1
    for part, (_, got) in part_digests(experiments, cells, rnd.rows).items():
        record_reference(part, seed, got)
        print(f"recorded reference for {part} seed {seed}: {got['sha256']}")
    return 0


def end_to_end(rounds: list[Round], n_cells: int, setups: list[dict], details: dict) -> dict:
    # One time per cell of the workload, the median over the rounds that ran
    # it: the sample count, and so the tail percentile, do not depend on how
    # many rounds fitted in the run. A pass over the workload takes the sum.
    # The metrics use the times scaled to the reference host speed; the
    # details line keeps the raw ones.
    def per_cell_ms(times: str) -> list[float]:
        return [1000.0 * statistics.median(getattr(r, times)[k] for r in rounds if len(r.seconds) > k) for k in range(n_cells)]

    cells_ms, raw_ms = per_cell_ms("scaled"), per_cell_ms("seconds")
    tail_ms, tail_pct = tail(cells_ms)
    accuracy = [row["accuracy"] for r in rounds for row in r.rows if row["accuracy"] is not None]
    details.update(
        samples_per_cell=[sum(len(r.seconds) > k for r in rounds) for k in range(n_cells)],
        cells=n_cells,
        host_scale=sum(cells_ms) / sum(raw_ms),
        raw_wall_s=sum(raw_ms) / 1000.0,
        raw_cell_ms_tail=tail(raw_ms)[0],
        raw_cell_ms_p50=statistics.median(raw_ms),
        tail_percentile=tail_pct,
        raw_setup_samples_s=[s["setup_s"] for s in setups],
    )
    return {
        "wall_s": sum(cells_ms) / 1000.0,
        "cell_ms_tail": tail_ms,
        "setup_s": statistics.median(s["scaled_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_mean": statistics.fmean(accuracy) if accuracy else 0.0,
    }


def per_layer(rounds: list[Round], required: tuple, details: dict, problems: list[str]) -> dict:
    """Counts from the traced rounds (which must agree), median times, and the tracing overhead."""
    traced = [r for r in rounds if r.tracer]
    per_round = [r.tracer.values() for r in traced]
    values = {}
    for name in per_round[0]:
        samples = [v[name] for v in per_round]
        if name.endswith(".calls") or name in COUNTS:
            if len(set(samples)) > 1:
                problems.append(f"count {name} differs between traced rounds: {samples}")
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    walls = [sum(r.seconds) for r in rounds if not r.tracer]
    traced_walls = [sum(r.seconds) for r in traced]
    values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    silent = [layer for layer in required if traced[0].tracer.calls[layer] == 0]
    problems += [f"layer {layer} recorded no calls; this workload must exercise it" for layer in silent]
    details.update(round_wall_s=walls, traced_round_wall_s=traced_walls)
    return values


if __name__ == "__main__":
    sys.exit(main())
