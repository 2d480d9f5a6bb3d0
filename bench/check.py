"""Output checks: sweep invariants on every seed, byte identity on the seeds with a reference.

The reference of a (part, seed) is the SHA-256 of the part's sweep
CSVs with the ``wall_ms`` column removed, plus a short digest of each cell
row so that a mismatch names the cells that moved. References are recorded
with ``run.py --record-reference`` and are valid for the BLAS build they
were recorded with.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def strip_wall_ms(csv_text: str) -> list[str]:
    """The CSV's lines without the ``wall_ms`` column."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    drop = rows[0].index("wall_ms")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:drop] + row[drop + 1 :] for row in rows)
    return out.getvalue().splitlines()


def digests(csv_texts: list[str], cell_counts: list[int]) -> dict:
    """Whole-output SHA-256 and per-cell digests of one round over a part's configs."""
    whole = hashlib.sha256()
    cells = []
    for text, count in zip(csv_texts, cell_counts):
        lines = strip_wall_ms(text)
        whole.update("\n".join(lines).encode() + b"\n")
        cells += [hashlib.sha256(line.encode()).hexdigest()[:12] for line in lines[1 : 1 + count]]
    return {"sha256": whole.hexdigest(), "cells": cells}


def load_reference(part: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{part}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def record_reference(part: str, seed: int, entry: dict) -> None:
    path = REFERENCE_DIR / f"{part}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table[str(seed)] = entry
    REFERENCE_DIR.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items(), key=lambda kv: int(kv[0]))]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one seed per line


def failed_cells(rows: list[dict], mapped: list[int], got: dict, reference: dict | None) -> tuple[set[int], list[str]]:
    """Indices of cells that errored, broke an invariant or moved from the reference, with reasons.

    ``rows`` are the leading cells of a part, all of them for a complete
    round. ``mapped[k]`` is the number of nodes cell k must map: min(n1, n2)
    of its pair.
    """
    bad: set[int] = set()
    problems: list[str] = []
    for k, (row, m) in enumerate(zip(rows, mapped)):
        label = f"cell {k} ({row['method']}, gamma={row['gamma']})"
        if row["error"]:
            bad.add(k)
            problems.append(f"{label}: {row['error']}")
        elif row["matches"] + row["mismatches"] + row["neutrals"] != m * (m - 1) // 2:
            bad.add(k)
            problems.append(f"{label}: matches + mismatches + neutrals != C({m}, 2)")
    if reference is not None:
        for k, (want, have) in enumerate(zip(reference["cells"], got["cells"])):
            if want != have:
                bad.add(k)
                problems.append(f"cell {k}: CSV row differs from the reference")
        # the whole output only exists for a complete round; a cut-short one has its leading cells
        if len(got["cells"]) == len(reference["cells"]) and reference["sha256"] != got["sha256"]:
            problems.append("sweep CSV differs from the reference")
    return bad, problems
