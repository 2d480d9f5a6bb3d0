import csv
import io
import json
from pathlib import Path

import pytest

from specalign import experiments
from specalign.align import MATCHING_MODES
from specalign.cli import main
from specalign.experiments import (
    CSV_COLUMNS,
    METHODS,
    PAIR_FAMILIES,
    ConfigError,
    aggregate_rows,
    run_cell,
    run_sweep,
    sweep_rows_to_csv,
    validate_config,
)
from specalign.graph import load_edge_list, write_edge_list
from specalign.matching import Assignment
from specalign.metrics import count_alignment
from specalign.randgen import erdos_renyi, power_law, random_regular, stochastic_block_model

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def run_main(argv, capsys):
    """Invoke the CLI entry point; returns (exit_code, stdout, stderr)."""
    code = 0
    try:
        main(argv)
    except SystemExit as exc:
        code = exc.code or 0
    out, err = capsys.readouterr()
    return code, out, err


def read_csv(path):
    return list(csv.reader(io.StringIO(path.read_text())))


def strip_wall(rows):
    idx = rows[0].index("wall_ms")
    return [[c for k, c in enumerate(r) if k != idx] for r in rows]


RECORD_KEYS = set(CSV_COLUMNS) - {"error"}  # the keys of a CLI JSON line

SMALL_CONFIG = {
    "pair": {"family": "er", "n": 5, "p": 0.3},
    "methods": [{"name": "lra", "gammas": [0.1]}],
    "seeds": [0],
}

MINI_CONFIG = {
    "pair": {"family": "er", "n": 12, "p": 0.25, "noise": "none"},
    "methods": [
        {"name": "lra", "gammas": [0.0, 0.2], "rank": 3},
        {"name": "ea", "gammas": [0.2], "eps": 0.001},
    ],
    "seeds": [0, 1],
}


def generate(command, spec, *options):
    """The argv of ``generate <command> --spec <spec as JSON text>`` and its other options."""
    return ["generate", command, "--spec", json.dumps(spec), *map(str, options)]


SBM_DENSITY = [[0.5, 0.1], [0.1, 0.4]]

# a spec of each family; er_sbm's integer cross must still give a float density matrix
FAMILY_SPECS = {
    "er": {"family": "er", "n": 12, "p": 0.3, "noise": "model1", "pe": 0.1},
    "sbm": {"family": "sbm", "block_sizes": [6, 8], "density": SBM_DENSITY, "noise": "model2", "pe": 0.05},
    "regular": {"family": "regular", "n": 10, "d": 3},
    "powerlaw": json.loads((PRESETS / "fig3d.json").read_text())["pair"],
    "er_sbm": {"family": "er_sbm", "n": 12, "block_sizes": [5, 7], "within": [0.3, 0.5], "cross": 0},
}


class TestGenerate:
    def test_er_writes_graph_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "g"
        code, _, _ = run_main(generate("graph", {"family": "er", "n": 10, "p": 0.3}, "--seed", 4, "--out", out), capsys)
        assert code == 0
        g = load_edge_list((tmp_path / "g.el").read_text())
        assert g.n == 10
        sidecar = json.loads((tmp_path / "g.json").read_text())
        assert sidecar["seed"] == 4
        assert sidecar["spec"] == {"family": "er", "n": 10, "p": 0.3, "noise": "none", "pe": 0.0}

    def test_pair_with_truth(self, tmp_path, capsys):
        out = tmp_path / "p"
        spec = {"family": "regular", "n": 10, "d": 3, "noise": "none"}
        code, _, _ = run_main(generate("pair", spec, "--seed", 3, "--out", out), capsys)
        assert code == 0
        sidecar = json.loads((tmp_path / "p.json").read_text())
        assert sorted(sidecar["truth"]) == list(range(10))
        g1 = load_edge_list((tmp_path / "p_g1.el").read_text())
        g2 = load_edge_list((tmp_path / "p_g2.el").read_text())
        assert g1.edge_count == g2.edge_count

    def test_noisy_powerlaw_pair(self, tmp_path, capsys):
        out = tmp_path / "n"
        spec = {"family": "powerlaw", "n": 30, "noise": "model2", "pe": 0.05}
        code, _, _ = run_main(generate("pair", spec, "--seed", 1, "--out", out), capsys)
        assert code == 0
        assert (tmp_path / "n_g1.el").exists() and (tmp_path / "n_g2.el").exists()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pair_command_draws_the_sweep_pair(self, tmp_path, capsys, seed):
        # the sweep's fig3d pair, from the spec README gives for it
        out = tmp_path / "d"
        spec = {"family": "powerlaw", "n": 50, "noise": "model2", "pe": 0.05}
        assert run_main(generate("pair", spec, "--seed", seed, "--out", out), capsys)[0] == 0
        g1, g2, truth = experiments.generate_pair(json.loads((PRESETS / "fig3d.json").read_text())["pair"], seed)
        assert (tmp_path / "d_g1.el").read_text() == write_edge_list(g1)
        assert (tmp_path / "d_g2.el").read_text() == write_edge_list(g2)
        assert json.loads((tmp_path / "d.json").read_text())["truth"] == truth.mapping.tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", list(PAIR_FAMILIES))
    def test_pair_command_writes_the_library_pair(self, tmp_path, capsys, family, seed):
        spec = FAMILY_SPECS[family]
        assert run_main(generate("pair", spec, "--seed", seed, "--out", tmp_path / "f"), capsys)[0] == 0
        g1, g2, truth = experiments.generate_pair(spec, seed)
        assert (tmp_path / "f_g1.el").read_text() == write_edge_list(g1)
        assert (tmp_path / "f_g2.el").read_text() == write_edge_list(g2)
        sidecar = json.loads((tmp_path / "f.json").read_text())
        assert sidecar["truth"] == (None if truth is None else truth.mapping.tolist())
        assert sidecar["spec"] == {**PAIR_FAMILIES[family], **spec}

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "spec, draw",
        [
            ({"family": "er", "n": 12, "p": 0.3}, lambda seed: erdos_renyi(12, 0.3, seed)),
            ({"family": "sbm", "block_sizes": [6, 8], "density": SBM_DENSITY}, lambda seed: stochastic_block_model([6, 8], SBM_DENSITY, seed)),
            ({"family": "regular", "n": 10, "d": 3}, lambda seed: random_regular(10, 3, seed)),
            ({"family": "powerlaw", "n": 20, "m": 2}, lambda seed: power_law(20, 2, 5, seed)),
        ],
        ids=["er", "sbm", "regular", "powerlaw"],
    )
    def test_graph_command_writes_the_generator_graph_at_the_seed(self, tmp_path, capsys, spec, draw, seed):
        assert run_main(generate("graph", spec, "--seed", seed, "--out", tmp_path / "g"), capsys)[0] == 0
        assert (tmp_path / "g.el").read_text() == write_edge_list(draw(seed))

    def test_pair_missing_required_key_is_a_config_error(self):
        with pytest.raises(experiments.ConfigError, match="'n'"):
            experiments.generate_pair({"family": "er", "p": 0.1}, 0)

    @pytest.mark.parametrize("within", [[0.1], [0.1, 0.3, 0.5]])
    def test_er_sbm_needs_one_within_per_block(self, tmp_path, capsys, within):
        spec = {"family": "er_sbm", "block_sizes": [25, 25], "within": within}
        with pytest.raises(ValueError, match=r"within .* block_sizes \[25, 25\]"):
            experiments.generate_pair(spec, 0)
        code, _, err = run_main(generate("pair", spec, "--out", tmp_path / "w"), capsys)
        assert code == 2
        assert f"within {within}" in err and "block_sizes [25, 25]" in err
        assert not (tmp_path / "w.json").exists()

    def test_er_sbm_integer_cross_keeps_within(self):
        # an integer density matrix would truncate within to 0 and give an empty blockmodel
        pairs = [experiments.generate_pair({"family": "er_sbm", "cross": cross}, 3) for cross in (0, 0.0)]
        assert pairs[0][1].edge_count > 0
        assert [write_edge_list(g) for g in pairs[0][:2]] == [write_edge_list(g) for g in pairs[1][:2]]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_er_sbm_pair_command_draws_the_default_sweep_pair(self, tmp_path, capsys, seed):
        out = tmp_path / "es"
        assert run_main(generate("pair", {"family": "er_sbm"}, "--seed", seed, "--out", out), capsys)[0] == 0
        g1, g2, truth = experiments.generate_pair({"family": "er_sbm"}, seed)
        assert (tmp_path / "es_g1.el").read_text() == write_edge_list(g1)
        assert (tmp_path / "es_g2.el").read_text() == write_edge_list(g2)
        sidecar = json.loads((tmp_path / "es.json").read_text())
        assert sidecar["truth"] is None and truth is None
        assert sidecar["spec"] == {"family": "er_sbm", **PAIR_FAMILIES["er_sbm"]}

    def test_pair_sidecar_spec_holds_the_family_keys(self, tmp_path, capsys):
        # p is not a key of regular, and noise and pe take their defaults
        spec = {"family": "regular", "n": 10, "d": 3, "p": 0.5}
        assert run_main(generate("pair", spec, "--out", tmp_path / "r"), capsys)[0] == 0
        spec = json.loads((tmp_path / "r.json").read_text())["spec"]
        assert spec == {"family": "regular", "n": 10, "d": 3, "noise": "none", "pe": 0.0}

    @pytest.mark.parametrize(
        "options, named",
        [
            (["--spec", '{"family": "er", "n": 10}'], ["'er'", "'p'"]),
            (["--spec", '{"family": "regular", "d": 3}'], ["'regular'", "'n'"]),
            (["--spec", '{"family": "er", "n": 10, "p": 0.3, "noise": "model1", "pe": 2.0}'], ["pe 2.0"]),
            (["--spec", '{"family": "er", "n": 10, "p": 0.3, "pe": NaN}'], ["pe nan"]),
            (["--spec", "{not json"], ["--spec is not valid JSON"]),
            (["--spec", '["er"]'], ["pair spec ['er'] is not an object"]),
            (["--spec", '{"family": "erx"}'], ["'erx'"]),
            (["--spec", '{"family": "er", "n": 5.5, "p": 0.3}'], ["'er'", "n 5.5"]),
        ],
    )
    def test_pair_command_bad_spec_usage_error(self, tmp_path, capsys, options, named):
        for command in ("pair", "graph"):
            code, _, err = run_main(["generate", command, *options, "--out", str(tmp_path / "m")], capsys)
            assert code == 1
            assert all(text in err for text in named)
            assert not (tmp_path / "m.json").exists()

    def test_powerlaw_writes_graph_with_table_defaults(self, tmp_path, capsys):
        out = tmp_path / "pl"
        code, _, _ = run_main(generate("graph", {"family": "powerlaw", "n": 20}, "--seed", 5, "--out", out), capsys)
        assert code == 0
        assert (tmp_path / "pl.el").read_text() == write_edge_list(power_law(20, 3, 5, 5))
        spec = json.loads((tmp_path / "pl.json").read_text())["spec"]
        assert spec == {"family": "powerlaw", "n": 20, "m": 3, "n0": 5, "noise": "none", "pe": 0.0}

    def test_sbm_graph(self, tmp_path, capsys):
        spec = {"family": "sbm", "block_sizes": [8, 8], "density": [[0.3, 0.1], [0.1, 0.5]]}
        code, _, _ = run_main(generate("graph", spec, "--seed", 2, "--out", tmp_path / "b"), capsys)
        assert code == 0
        assert load_edge_list((tmp_path / "b.el").read_text()).n == 16

    def test_invalid_params_nonzero_exit(self, tmp_path, capsys):
        code, _, err = run_main(generate("graph", {"family": "regular", "n": 5, "d": 3}, "--out", tmp_path / "x"), capsys)
        assert code == 2
        assert "even" in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"family": "er_sbm", "block_sizes": [], "within": []},
            {"family": "sbm", "block_sizes": [], "density": []},
            {"family": "sbm", "block_sizes": [12345678901234567890], "density": [[0.1]]},
        ],
        ids=["er-sbm-no-blocks", "sbm-no-blocks", "sbm-past-int64"],
    )
    def test_bad_block_sizes_named(self, tmp_path, capsys, spec):
        code, _, err = run_main(generate("pair", spec, "--out", tmp_path / "b"), capsys)
        assert code == 2
        assert err.startswith("error: block_sizes ")
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize(
        "within, cross, named",
        [("nan,0.2", "0.1", "density[0, 0] = nan"), ("0.1,0.2", "nan", "density[0, 1] = nan")],
    )
    def test_sbm_non_finite_density_names_it(self, tmp_path, capsys, within, cross, named):
        (w0, w1), c = map(float, within.split(",")), float(cross)
        spec = {"family": "sbm", "block_sizes": [5, 5], "density": [[w0, c], [c, w1]]}
        code, _, err = run_main(generate("graph", spec, "--out", tmp_path / "b"), capsys)
        assert code == 2
        assert named in err
        assert "symmetric" not in err

    def test_er_negative_n_names_it(self, tmp_path, capsys):
        code, _, err = run_main(generate("graph", {"family": "er", "n": -3, "p": 0.1}, "--out", tmp_path / "g"), capsys)
        assert code == 2
        assert "n=-3" in err
        assert "negative dimensions" not in err


class TestAlign:
    @pytest.fixture()
    def pair(self, tmp_path, capsys):
        out = tmp_path / "pair"
        run_main(generate("pair", {"family": "er", "n": 10, "p": 0.3}, "--seed", 2, "--out", out), capsys)
        return tmp_path

    def test_ea_prints_record(self, pair, capsys):
        code, out, _ = run_main(
            ["align", "ea", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), "--alpha", "10", "--eps", "0.001"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record.keys() == RECORD_KEYS
        assert record["method"] == "ea"
        assert record["mismatches"] >= 0

    def test_lra_with_mapping_output(self, pair, capsys):
        out_tsv = pair / "map.tsv"
        code, out, _ = run_main(
            ["align", "lra", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), "--gamma", "0.2", "--rank", "3", "--out", str(out_tsv)],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["seed"] is None
        rows, cols = zip(*(map(int, line.split()) for line in out_tsv.read_text().splitlines()))
        g1 = load_edge_list((pair / "pair_g1.el").read_text())
        g2 = load_edge_list((pair / "pair_g2.el").read_text())
        counts = count_alignment(g1, g2, Assignment(rows, cols, 0.0))
        assert counts == (record["matches"], record["mismatches"], record["neutrals"])

    def test_brute_agrees_with_library(self, tmp_path, capsys):
        out = tmp_path / "small"
        run_main(generate("pair", {"family": "er", "n": 5, "p": 0.4}, "--seed", 9, "--out", out), capsys)
        code, text, _ = run_main(
            ["align", "brute", str(tmp_path / "small_g1.el"), str(tmp_path / "small_g2.el"), "--gamma", "0.0"],
            capsys,
        )
        assert code == 0
        record = json.loads(text)
        from specalign.align import brute_force_qap

        g1 = load_edge_list((tmp_path / "small_g1.el").read_text())
        g2 = load_edge_list((tmp_path / "small_g2.el").read_text())
        assert record["objective"] == pytest.approx(brute_force_qap(g1, g2, 0.0).objective)

    def test_restricted_alignment(self, pair, capsys):
        sidecar = json.loads((pair / "pair.json").read_text())
        truth = sidecar["truth"]
        r_file = pair / "allowed.txt"
        lines = [f"{i} {truth[i]}" for i in range(10)] + ["0 0", "1 0", "2 1"]
        r_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run_main(
            ["align", "ea", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), "--alpha", "10", "--restrict", str(r_file), "--truth", str(pair / "pair.json")],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["accuracy"] >= 0.8

    def test_dump_alignment_matrix(self, pair, capsys):
        dump = pair / "a.csv"
        code, _, _ = run_main(
            ["align", "ea", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), "--alpha", "3", "--dump-alignment", str(dump)],
            capsys,
        )
        assert code == 0
        rows = dump.read_text().strip().splitlines()
        assert len(rows) == 100

    def test_eval_round_trip(self, pair, capsys):
        out_tsv = pair / "m.tsv"
        _, out, _ = run_main(
            ["align", "lra", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), "--gamma", "0.1", "--out", str(out_tsv), "--truth", str(pair / "pair.json")],
            capsys,
        )
        align_record = json.loads(out)
        code, out, _ = run_main(
            ["eval", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), str(out_tsv), "--gamma", "0.1", "--truth", str(pair / "pair.json")],
            capsys,
        )
        assert code == 0
        eval_record = json.loads(out)
        assert eval_record.keys() == RECORD_KEYS
        for key in ("matches", "mismatches", "neutrals", "accuracy"):
            assert eval_record[key] == align_record[key]
        assert eval_record["objective"] == pytest.approx(align_record["objective"])

    def test_explicit_scores_match_alpha(self, pair, capsys):
        graphs = [str(pair / "pair_g1.el"), str(pair / "pair_g2.el")]
        records = []
        for scores in (["--alpha", "4", "--eps", "0.001"], ["--s1", "4.001", "--s2", "1.001", "--s3", "0.001"]):
            code, out, _ = run_main(["align", "ea", *graphs, *scores], capsys)
            assert code == 0
            record = json.loads(out)
            del record["wall_ms"]
            records.append(record)
        assert records[0] == records[1]

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({}, ["truth.json"]),
            ([0, 1], ["truth.json"]),
            ({"truth": [1, 0]}, ["2 nodes", "pair_g1.el has 10"]),
            # numpy would truncate 0.5 to 0, read False and True as 0 and 1, or overflow
            ({"truth": [0.5, *range(1, 10)]}, ["truth.json"]),
            ({"truth": [False, True, *range(2, 10)]}, ["truth.json"]),
            ({"truth": "abc"}, ["truth.json"]),
            ({"truth": [12345678901234567890, *range(1, 10)]}, ["truth.json"]),
            ({"truth": [0, 0, *range(2, 10)]}, ["truth.json"]),
        ],
        ids=["no-truth-key", "bare-list", "two-of-ten-nodes", "float-id", "boolean-ids", "string", "20-digit-id", "repeated-id"],
    )
    def test_bad_truth_file_fails_before_solving(self, pair, capsys, payload, named):
        truth = pair / "truth.json"
        truth.write_text(json.dumps(payload))
        graphs = [str(pair / "pair_g1.el"), str(pair / "pair_g2.el")]
        out = pair / "map.tsv"
        code, _, err = run_main(["align", "ea", *graphs, "--alpha", "4", "--truth", str(truth), "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error:") and all(text in err for text in named)
        assert not out.exists()

    def test_usage_error_exit_one(self, pair, capsys):
        code, _, _ = run_main(["align", "ea", str(pair / "pair_g1.el"), str(pair / "pair_g2.el")], capsys)
        assert code == 1

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run_main(["align", "lra", "nope.el", "nope2.el", "--gamma", "0.1"], capsys)
        assert code == 2

    def test_allocation_failure_exit_two(self, tmp_path, capsys):
        # a 2e9-node graph needs 3.5 EiB of adjacency, which numpy refuses
        # at once; a merely large size would be allocated lazily instead
        huge = tmp_path / "huge.el"
        huge.write_text("0 2000000000\n")
        code, _, err = run_main(["align", "lra", str(huge), str(huge), "--gamma", "0.1"], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("bad_line", ["1 x", "3 -1"])
    def test_eval_bad_mapping_line_names_it(self, pair, capsys, bad_line):
        tsv = pair / "bad.tsv"
        tsv.write_text(f"0\t0\n{bad_line}\n")
        code, _, err = run_main(["eval", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), str(tsv)], capsys)
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "lines, message",
        [
            # 20 digits: past int64 but below 2**64, and past 2**64
            ("0\t0\n12345678901234567890\t1\n", "fit in int64"),
            ("0\t99999999999999999999\n", "fit in int64"),
            ("0\t0\n0\t1\n", "one-to-one"),
            ("0\t1\n2\t1\n", "one-to-one"),
            ("0\t0\n10\t1\n", "outside the graphs"),
        ],
    )
    def test_eval_bad_mapping_exit_two(self, pair, capsys, lines, message):
        tsv = pair / "bad.tsv"
        tsv.write_text(lines)
        code, _, err = run_main(["eval", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), str(tsv)], capsys)
        assert code == 2
        assert err.startswith("error:") and message in err

    def test_eval_of_unsorted_mapping_matches_sorted(self, pair, capsys):
        # the objective is summed in row order; summed in file order, these two orders read 10.2 and 10.200000000000001
        cols = [4, 6, 2, 7, 3, 5, 9, 0, 8, 1]
        records = []
        for rows in (range(10), [2, 9, 3, 6, 0, 4, 8, 7, 5, 1]):
            tsv = pair / "m.tsv"
            tsv.write_text("".join(f"{i}\t{cols[i]}\n" for i in rows))
            code, out, _ = run_main(["eval", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), str(tsv), "--gamma", "0.1"], capsys)
            assert code == 0
            records.append(json.loads(out))
        assert records[0] == records[1]

    @pytest.mark.parametrize("bad_line", ["1 2 3", "1 x", "3 -1"])
    def test_restrict_bad_line_names_it(self, pair, capsys, bad_line):
        r_file = pair / "allowed.txt"
        r_file.write_text(f"# allowed pairs\n0 0\n{bad_line}\n")
        code, _, err = run_main(
            ["align", "ea", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), "--alpha", "10", "--restrict", str(r_file)],
            capsys,
        )
        assert code == 2
        assert "line 3" in err

    def test_empty_restrict_file_names_the_mapping_set(self, pair, capsys):
        r_file = pair / "allowed.txt"
        r_file.write_text("# no allowed pairs\n\n")
        code, _, err = run_main(
            ["align", "ea", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), "--alpha", "10", "--restrict", str(r_file)],
            capsys,
        )
        assert code == 2
        assert "mapping set is empty" in err
        assert "argmax" not in err

    def test_restrict_out_of_range_pair_names_it(self, pair, capsys):
        # small ids next to one past int64 would make a float array of the pairs
        for text, named in [("0\t0\n10\t3\n1\t1\n", "10, 3"), ("0\t0\n12345678901234567891\t1\n", "12345678901234567891, 1")]:
            r_file = pair / "allowed.txt"
            r_file.write_text(text)
            code, _, err = run_main(
                ["align", "ea", str(pair / "pair_g1.el"), str(pair / "pair_g2.el"), "--alpha", "10", "--restrict", str(r_file)],
                capsys,
            )
            assert code == 2
            assert f"pair ({named}) out of range for sizes (10, 10)" in err

    @pytest.mark.parametrize("command, option, key", [("ea", "--eps FLOAT", "eps"), ("lra", "--rank INTEGER", "rank")])
    def test_option_defaults_are_the_method_defaults(self, capsys, command, option, key):
        code, out, _ = run_main(["align", command, "--help"], capsys)
        assert code == 0
        lines = " ".join(out.split())  # help text wraps
        assert f"{option} [default: {METHODS[command][key]}]" in lines
        assert f"[default: {METHODS[command]['matching']}]" in lines

    @pytest.mark.parametrize("mode", MATCHING_MODES)
    @pytest.mark.parametrize("command, option", [("ea", ["--alpha", "10"]), ("lra", ["--gamma", "0.2"])])
    def test_matching_option_takes_each_mode_and_refuses_others(self, pair, capsys, command, option, mode):
        graphs = [str(pair / "pair_g1.el"), str(pair / "pair_g2.el")]
        assert run_main(["align", command, *graphs, *option, "--matching", mode], capsys)[0] == 0
        code, _, err = run_main(["align", command, *graphs, *option, "--matching", "fast"], capsys)
        assert code == 1
        assert "'fast'" in err and repr(mode) in err


class TestSweep:
    def test_deterministic_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(MINI_CONFIG))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main(["sweep", str(cfg), "--out", str(out1)], capsys)[0] == 0
        assert run_main(["sweep", str(cfg), "--out", str(out2)], capsys)[0] == 0
        assert strip_wall(read_csv(out1)) == strip_wall(read_csv(out2))

    def test_row_order_and_aggregates(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(MINI_CONFIG))
        out = tmp_path / "o.csv"
        run_main(["sweep", str(cfg), "--out", str(out)], capsys)
        rows = read_csv(out)
        cells = rows[1 : 1 + 6]
        assert [(r[0], r[1], r[2]) for r in cells] == [
            ("lra", "0.0", "0"),
            ("lra", "0.0", "1"),
            ("lra", "0.2", "0"),
            ("lra", "0.2", "1"),
            ("ea", "0.2", "0"),
            ("ea", "0.2", "1"),
        ]
        tail = rows[7:]
        assert [(r[0], r[1], r[2]) for r in tail] == [
            ("lra", "0.0", "mean"),
            ("lra", "0.0", "std"),
            ("lra", "0.2", "mean"),
            ("lra", "0.2", "std"),
            ("ea", "0.2", "mean"),
            ("ea", "0.2", "std"),
        ]

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(MINI_CONFIG))
        out = tmp_path / "env.csv"
        monkeypatch.setenv("SPECALIGN_SEED", "7")
        run_main(["sweep", str(cfg), "--out", str(out)], capsys)
        rows = read_csv(out)
        seeds = {r[2] for r in rows[1:] if r[2] not in ("mean", "std")}
        assert seeds == {"7"}

    def test_empty_methods_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pair": {"family": "er", "n": 5, "p": 0.1}, "methods": [], "seeds": [1]}))
        code, _, _ = run_main(["sweep", str(cfg)], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "config",
        [
            5,
            {**SMALL_CONFIG, "pair": "er"},
            {**SMALL_CONFIG, "methods": ["ea"]},
            {**SMALL_CONFIG, "seeds": 5},
            {**SMALL_CONFIG, "seeds": [[1]]},
            {**SMALL_CONFIG, "seeds": [None]},
            {**SMALL_CONFIG, "methods": [{"name": "lra", "gammas": 0.2}]},
            {**SMALL_CONFIG, "methods": [{"name": "lra", "gammas": [0.2], "matching": "exakt"}]},
            {**SMALL_CONFIG, "methods": [{"name": "lra", "gammas": [0.2], "rank": "three"}]},
            {**SMALL_CONFIG, "methods": [{"name": "lra", "gammas": [0.2], "rank": 0}]},
            {**SMALL_CONFIG, "methods": [{"name": "ea", "gammas": [0.2], "eps": -1}]},
            {**SMALL_CONFIG, "methods": [{"name": "ea", "gammas": [0.2], "restrict_k": 0}]},
            {**SMALL_CONFIG, "pair": {"n": 5, "p": 0.3}},
            {**SMALL_CONFIG, "pair": {"family": "erx", "n": 5, "p": 0.3}},
            {**SMALL_CONFIG, "pair": {"family": "er", "n": 5, "p": 0.3, "noise": "modl1"}},
            {**SMALL_CONFIG, "seeds": [1, 1.5]},
            {**SMALL_CONFIG, "seeds": [True]},
            {**SMALL_CONFIG, "seeds": [-1]},
            {**SMALL_CONFIG, "seeds": ["x"]},
            {**SMALL_CONFIG, "seeds": [1, "1"]},
            {key: value for key, value in SMALL_CONFIG.items() if key != "pair"},
            {**SMALL_CONFIG, "seeds": []},
            {**SMALL_CONFIG, "methods": [{"name": "spectral", "gammas": [0.2]}]},
            {**SMALL_CONFIG, "methods": [{"name": "lra"}]},
            {**SMALL_CONFIG, "methods": [{"name": "lra", "gammas": [0.5]}]},
            {**SMALL_CONFIG, "methods": [{"name": "ea", "gammas": [0]}]},
            {"pair": {"family": "er_sbm"}, "methods": [{"name": "ea", "gammas": [0.2], "restrict_k": 2}], "seeds": [0]},
            {**SMALL_CONFIG, "pair": {"family": ["er"], "n": 5, "p": 0.3}},
            {**SMALL_CONFIG, "pair": {"family": "er", "n": 5, "p": 0.3, "noise": "model1", "pe": "x"}},
            {**SMALL_CONFIG, "pair": {"family": "er", "n": 5, "p": 0.3, "noise": "model1", "pe": 2}},
            {**SMALL_CONFIG, "pair": {"family": "er", "n": 5, "p": 0.3, "noise": "none", "pe": None}},
            {**SMALL_CONFIG, "methods": [{"name": "lra", "gammas": [0.2], "rank": None}]},
            {**SMALL_CONFIG, "methods": [{"name": "ea", "gammas": [0.2], "eps": None}]},
            {**SMALL_CONFIG, "methods": [{"name": "lra", "gammas": [0.2], "eps": -1}]},
            {"pair": {"family": "er_sbm"}, "methods": [{"name": "lra", "gammas": [0.2], "restrict_k": 2}], "seeds": [0]},
            {**SMALL_CONFIG, "pair": {"family": "er_sbm", "noise": "model1", "pe": 2}},
        ],
        ids=[
            "not-object",
            "pair-string",
            "method-string",
            "seeds-int",
            "seed-list",
            "seed-null",
            "gammas-float",
            "matching-typo",
            "rank-string",
            "rank-zero",
            "eps-negative",
            "restrict-k-zero",
            "family-missing",
            "family-unknown",
            "noise-unknown",
            "seed-float",
            "seed-bool",
            "seed-negative",
            "seed-word",
            "seeds-equal-after-conversion",
            "pair-missing",
            "seeds-empty",
            "method-unknown",
            "gammas-missing",
            "gamma-half",
            "ea-gamma-zero",
            "restrict-k-without-truth",
            "family-list",
            "pe-string",
            "pe-two",
            "pe-null",
            "rank-null",
            "eps-null",
            "eps-negative-on-lra",
            "restrict-k-on-lra-without-truth",
            "pe-two-on-er-sbm",
        ],
    )
    def test_wrong_typed_config_usage_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_main(["sweep", str(cfg)], capsys)
        assert code == 1
        assert "Error:" in err

    @pytest.mark.parametrize(
        "spec, family, key",
        [
            ({"family": "er", "p": 0.3}, "'er'", "'n'"),
            ({"family": "er", "n": 5}, "'er'", "'p'"),
            ({"family": "regular", "n": 6}, "'regular'", "'d'"),
            ({"family": "regular", "d": 2}, "'regular'", "'n'"),
            ({"family": "powerlaw", "m": 2}, "'powerlaw'", "'n'"),
            ({"family": "sbm", "density": [[0.3]]}, "'sbm'", "'block_sizes'"),
            ({"family": "sbm", "block_sizes": [5]}, "'sbm'", "'density'"),
        ],
    )
    def test_pair_missing_required_key_names_family_and_key(self, tmp_path, capsys, spec, family, key):
        # every cell would fail with a KeyError; the config is refused before any runs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "pair": spec}))
        out = tmp_path / "out.csv"
        code, _, err = run_main(["sweep", str(cfg), "--out", str(out)], capsys)
        assert code == 1
        assert family in err and key in err
        assert not out.exists()

    def test_non_string_output_refused_before_any_cell(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(experiments, "run_cell", lambda *cell: ran.append(cell))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "output": 5}))
        code, _, err = run_main(["sweep", str(cfg)], capsys)
        assert code == 1
        assert "'output' 5" in err
        assert ran == []

    def test_invalid_json_config_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_main(["sweep", str(cfg)], capsys)
        assert code == 1
        assert "not valid JSON" in err

    def test_sweep_without_output_prints_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        code, out, _ = run_main(["sweep", str(cfg)], capsys)
        assert code == 0
        expected = sweep_rows_to_csv(run_sweep(SMALL_CONFIG))
        assert strip_wall(list(csv.reader(io.StringIO(out)))) == strip_wall(list(csv.reader(io.StringIO(expected))))

    def test_sweep_in_which_every_cell_fails_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        config = {"pair": {"family": "er", "n": 12, "p": 0.25}, "methods": [{"name": "brute", "gammas": [0.0]}], "seeds": [0, 1]}
        cfg.write_text(json.dumps(config))
        code, _, err = run_main(["sweep", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert "all sweep cells failed" in err
        assert "brute force is limited" in out.read_text()

    @pytest.mark.parametrize("name", list(METHODS))
    def test_naming_every_method_default_changes_no_row(self, name):
        pair = {"family": "er", "n": 6, "p": 0.4, "noise": "model1", "pe": 0.1}
        bare = {"name": name, "gammas": [0.2, 0.3]}
        configs = [{**SMALL_CONFIG, "pair": pair, "methods": [method], "seeds": [0, 1]} for method in (bare, {**bare, **METHODS[name]})]
        rows = [run_sweep(config) for config in configs]
        for row in rows[0] + rows[1]:
            assert row.pop("wall_ms") is not None and row["error"] == ""
        assert rows[0] == rows[1]

    @pytest.mark.parametrize(
        "pair, method, gamma, message",
        [
            (SMALL_CONFIG["pair"], {"name": "ea"}, 0.0, "gamma > 0"),
            ({"family": "er_sbm"}, {"name": "ea", "restrict_k": 2}, 0.2, "ground truth"),
            (SMALL_CONFIG["pair"], {"name": "lra", "rank": 0}, 0.2, "rank 0"),
            (SMALL_CONFIG["pair"], {"name": "spectral"}, 0.2, "'spectral'"),
        ],
    )
    def test_sweep_and_cell_refuse_a_method_alike(self, pair, method, gamma, message):
        # one resolver checks the method for the config and for each cell
        with pytest.raises(ConfigError, match=message) as refused:
            validate_config({**SMALL_CONFIG, "pair": pair, "methods": [{**method, "gammas": [gamma]}]})
        with pytest.raises(ConfigError) as failed:
            run_cell(pair, method, gamma, 0)
        assert str(failed.value) == str(refused.value)

    def test_er_sbm_pair_needs_no_keys(self):
        rows = run_sweep({**SMALL_CONFIG, "pair": {"family": "er_sbm"}})
        assert [row["error"] for row in rows] == [""]

    def test_misspelt_matching_names_method_and_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        config = {**SMALL_CONFIG, "methods": [{"name": "lra", "gammas": [0.2], "matching": "exakt"}]}
        cfg.write_text(json.dumps(config))
        code, _, err = run_main(["sweep", str(cfg)], capsys)
        assert code == 1
        assert "'lra'" in err and "'exakt'" in err

    @pytest.mark.parametrize("mode", MATCHING_MODES)
    def test_config_takes_each_matching_mode_and_refuses_others(self, tmp_path, capsys, mode):
        method = {"name": "lra", "gammas": [0.2]}
        experiments.validate_config({**SMALL_CONFIG, "methods": [{**method, "matching": mode}]})
        fast = {**SMALL_CONFIG, "methods": [{**method, "matching": "fast"}]}
        with pytest.raises(experiments.ConfigError, match=repr(mode)):
            experiments.validate_config(fast)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fast))
        assert run_main(["sweep", str(cfg)], capsys)[0] == 1

    @pytest.mark.parametrize(
        "method, value",
        [
            ({"name": "lra", "gammas": [0.2], "rank": True}, "True"),
            ({"name": "lra", "gammas": [0.2], "rank": 13}, "13"),
            ({"name": "ea", "gammas": [0.2], "eps": "0.001"}, "'0.001'"),
            ({"name": "ea", "gammas": [0.2], "restrict_k": 2.5}, "2.5"),
        ],
    )
    def test_bad_method_field_names_method_and_value(self, tmp_path, capsys, method, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "methods": [method]}))
        code, _, err = run_main(["sweep", str(cfg)], capsys)
        assert code == 1
        assert repr(method["name"]) in err and value in err

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("pair", {"n": 5, "p": 0.3}, "None"),
            ("pair", {"family": "erx", "n": 5, "p": 0.3}, "'erx'"),
            ("pair", {"family": "er", "n": 5, "p": 0.3, "noise": "modl1"}, "'modl1'"),
            ("seeds", [1, 1.5], "1.5"),
            ("seeds", [True], "True"),
            ("seeds", [-1], "-1"),
            ("seeds", ["x"], "'x'"),
            # a generator key of the wrong type, which a cast would truncate or a cell fail on (exit 0 or 2)
            ("pair", {"family": "er", "n": 5.5, "p": 0.3}, "pair family 'er' n 5.5 is not an integer"),
            ("pair", {"family": "regular", "n": 6, "d": 3.7}, "pair family 'regular' d 3.7 is not an integer"),
            ("pair", {"family": "er", "n": 5, "p": True}, "pair family 'er' p True is not a number"),
            ("pair", {"family": "er", "n": None, "p": 0.3}, "pair family 'er' n None is not an integer"),
            ("pair", {"family": "er", "n": "ten", "p": 0.3}, "pair family 'er' n 'ten' is not an integer"),
            ("pair", {"family": "powerlaw", "n": 20, "n0": 4.0}, "pair family 'powerlaw' n0 4.0 is not an integer"),
            ("pair", {"family": "er_sbm", "cross": "0.05"}, "pair family 'er_sbm' cross '0.05' is not a number"),
            ("pair", {"family": "sbm", "block_sizes": [5, "5"], "density": [[0.3, 0.1], [0.1, 0.3]]}, "pair family 'sbm' block_sizes [5, '5']"),
            ("pair", {"family": "er_sbm", "within": [0.1, "0.3"]}, "pair family 'er_sbm' within [0.1, '0.3']"),
            ("pair", {"family": "sbm", "block_sizes": [5, 5], "density": [[0.3, "x"], [0.1, 0.3]]}, "pair family 'sbm' density [[0.3, 'x'], [0.1, 0.3]]"),
        ],
    )
    def test_bad_pair_or_seed_names_value(self, tmp_path, capsys, field, value, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, field: value}))
        code, _, err = run_main(["sweep", str(cfg)], capsys)
        assert code == 1
        assert shown in err

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    def test_bad_env_seed_usage_error(self, tmp_path, capsys, monkeypatch, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        monkeypatch.setenv("SPECALIGN_SEED", value)
        code, _, err = run_main(["sweep", str(cfg)], capsys)
        assert code == 1
        assert f"SPECALIGN_SEED {value!r}" in err

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_usage_error(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "out.csv"
        code, _, err = run_main(["sweep", str(cfg), "--jobs", jobs, "--out", str(out)], capsys)
        assert code == 1
        assert "--jobs" in err and jobs in err
        assert not out.exists()

    @pytest.mark.parametrize("cpus, want", [(64, [3]), (2, [2]), (None, [])])
    def test_worker_count_clamped(self, monkeypatch, cpus, want):
        # a recorder stands in for the pool, so no process is started
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        config = {
            "pair": {"family": "er", "n": 8, "p": 0.3, "noise": "none"},
            "methods": [{"name": "lra", "gammas": [0.1], "rank": 2}],
            "seeds": [0, 1, 2],
        }
        rows = run_sweep(config, jobs=100_000)
        assert created == want
        assert [row["error"] for row in rows] == ["", "", ""]

    @pytest.mark.parametrize(
        "override, message",
        [([-1], "seed -1 is not"), ([1, 1], "distinct"), (["x"], "seed 'x' is not"), ([True], "seed True is not")],
    )
    def test_seeds_override_follows_the_seed_rule(self, override, message):
        with pytest.raises(experiments.ConfigError, match=message):
            run_sweep(SMALL_CONFIG, seeds_override=override)

    def test_seeds_override_accepts_digit_strings(self):
        assert [row["seed"] for row in run_sweep(SMALL_CONFIG, seeds_override=["3", 4])] == [3, 4]

    def test_partial_failure_recorded_per_row(self):
        config = {
            "pair": {"family": "er", "n": 12, "p": 0.25, "noise": "none"},
            "methods": [{"name": "brute", "gammas": [0.0]}, {"name": "lra", "gammas": [0.0]}],
            "seeds": [0],
        }
        rows = run_sweep(config)
        assert rows[0]["error"] != ""  # brute refuses n=12
        assert rows[1]["error"] == ""
        for row in rows + aggregate_rows(rows):  # failed, solved, mean and std rows
            assert row.keys() == set(CSV_COLUMNS)
        text = sweep_rows_to_csv(rows)
        assert "brute force is limited" in text

    def test_er_sbm_pair_has_no_accuracy(self):
        row = run_cell(
            {"family": "er_sbm", "n": 10, "p": 0.2, "block_sizes": [10, 10], "within": [0.2, 0.4], "cross": 0.1},
            {"name": "lra", "rank": 2},
            0.1,
            3,
        )
        assert row["accuracy"] is None
        assert row["error"] == ""

    def test_preset_configs_are_valid(self, capsys):
        from pathlib import Path

        from specalign.experiments import validate_config

        for preset in sorted(Path(__file__).resolve().parent.parent.glob("presets/*.json")):
            validate_config(json.loads(preset.read_text()))
