"""Command-line interface: flags, exit codes, and byte determinism."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from udgprune import geometry, rgg
from udgprune.cli import main
from udgprune.geometry import SquareRegion

DATA = Path(__file__).parent / "data"
GOLDEN_GRAPH = str(DATA / "golden_graph.txt")


@pytest.fixture()
def graph_file(tmp_path):
    sq = SquareRegion(6.0)
    g = rgg.build_udg(rgg.sample_points(80, sq, seed=5), sq, seed=5)
    path = tmp_path / "graph.txt"
    rgg.save_graph(g, path)
    return path


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "geom-check" in capsys.readouterr().out


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_config_exits_one(capsys):
    assert main(["sweep", "--config", "does-not-exist.json"]) == 1
    assert "error:" in capsys.readouterr().err


# Each invocation's --out file and standard output, as committed under
# data/cli.  sweep and geom-check are left out: their floats pass through
# libm log, acos and atan2, whose last bit may differ between machines.
GOLDEN_RUNS = [
    (["run-rule2", "--n", "4000", "--side", "30", "--seed", "11"], "run_rule2_sampled.json", None),
    # the paper's regime: side sqrt(n / ln n), mean degree about 30
    (["run-rule2", "--n", "16000", "--side", "40.66", "--seed", "3"], "run_rule2_sqrt.json", None),
    # a sparse square (mean degree about 0.9): many empty cells and keys
    (["run-rule2", "--n", "3000", "--side", "100", "--seed", "5"], "run_rule2_sparse.json", None),
    (["run-rule2", "--graph", GOLDEN_GRAPH], "run_rule2_graph.json", None),
    (["verify", "--graph", GOLDEN_GRAPH], "verify_graph.json", None),
    # every third member of Rule 2's set: neither dominating nor connected
    (
        ["verify", "--graph", GOLDEN_GRAPH, "--cds", str(DATA / "cli" / "verify_every_third_ids.txt")],
        "verify_every_third.json",
        None,
    ),
    (
        ["local-coverage", "--b", "1000", "--w", "1000", "--ox", "5", "--oy", "5",
         "--side", "10", "--trials", "20", "--seed", "2"],
        "local_coverage.csv",
        "local_coverage_summary.json",
    ),
]


@pytest.mark.parametrize("argv,out_golden,stdout_golden", GOLDEN_RUNS, ids=[run[1] for run in GOLDEN_RUNS])
def test_output_bytes_match_the_goldens(tmp_path, capsys, argv, out_golden, stdout_golden):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "cli" / out_golden).read_bytes()
    expected = (DATA / "cli" / stdout_golden).read_bytes() if stdout_golden else b""
    assert capsys.readouterr().out.encode() == expected


def test_run_rule2_needs_inputs(capsys):
    assert main(["run-rule2"]) == 1
    assert "error:" in capsys.readouterr().err


class TestRunRule2:
    def test_fresh_graph_json(self, capsys):
        assert main(["run-rule2", "--n", "200", "--side", "8", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 200 and payload["seed"] == 3
        assert payload["cds_size"] + payload["pruned"] == 200
        assert payload["dominating"] is True
        assert payload["millis"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(
                ["run-rule2", "--n", "300", "--side", "10", "--seed", "9", "--out", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_graph_file_input(self, graph_file, capsys):
        assert main(["run-rule2", "--graph", str(graph_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 80 and payload["seed"] == 5

    @pytest.mark.parametrize("flag,value", [("--n", "7"), ("--side", "5"), ("--seed", "99")])
    def test_graph_with_sampling_flag_exits_one(self, graph_file, capsys, flag, value):
        assert main(["run-rule2", "--graph", str(graph_file), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --graph takes n, side and seed from the file" in captured.err

    def test_side_past_the_key_limit_exits_one(self, capsys):
        assert main(["run-rule2", "--n", "5", "--side", "1e19", "--seed", "1"]) == 1
        assert "error: square side 1e+19: cell keys are int64" in capsys.readouterr().err


class TestVerify:
    def test_fresh_prune_is_valid(self, graph_file, capsys):
        assert main(["verify", "--graph", str(graph_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cds_source"] == "rule2"
        assert payload["dominating"] and payload["component_preserving"]

    def test_explicit_cds_file(self, graph_file, tmp_path, capsys):
        cds = tmp_path / "cds.txt"
        cds.write_text(" ".join(str(i) for i in range(1, 81)))
        assert main(["verify", "--graph", str(graph_file), "--cds", str(cds)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cds_source"] == "file"
        assert payload["cds_size"] == 80 and payload["dominating"]

    def test_bad_cds_member_exits_one(self, graph_file, tmp_path, capsys):
        cds = tmp_path / "cds.txt"
        cds.write_text("1 2 99999")
        assert main(["verify", "--graph", str(graph_file), "--cds", str(cds)]) == 1

    def test_duplicate_cds_member_exits_one(self, graph_file, tmp_path, capsys):
        cds = tmp_path / "cds.txt"
        cds.write_text(" ".join(str(i) for i in list(range(1, 81)) + [7]))
        assert main(["verify", "--graph", str(graph_file), "--cds", str(cds)]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_non_integer_cds_token_exits_one(self, graph_file, tmp_path, capsys):
        cds = tmp_path / "cds.txt"
        cds.write_text("1 x")
        assert main(["verify", "--graph", str(graph_file), "--cds", str(cds)]) == 1
        assert f"bad vertex id in {cds}: token 2: 'x'" in capsys.readouterr().err

    def test_side_past_the_key_limit_exits_one(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("2 1e19 0\n1 1.0 1.0\n2 1.5 1.0\n")
        assert main(["verify", "--graph", str(path)]) == 1
        assert "error: square side 1e+19: cell keys are int64" in capsys.readouterr().err

    def test_duplicate_vertex_line_exits_one(self, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text("3 5.0 0\n1 1.0 1.0\n2 2.0 2.0\n2 3.0 3.0\n3 4.0 4.0\n")
        assert main(["verify", "--graph", str(path)]) == 1
        assert "vertex id 2 appears twice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-rule2", "verify"])
@pytest.mark.parametrize("header", ["0 5.0 0", "-1 5.0 0", "1 5.0 x"], ids=["n0", "n-1", "seed-x"])
def test_bad_graph_header_exits_one(tmp_path, capsys, command, header):
    path = tmp_path / "hdr.txt"
    path.write_text(header + "\n")
    assert main([command, "--graph", str(path)]) == 1
    assert f"bad graph header in {path}" in capsys.readouterr().err


class TestLocalCoverage:
    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        args = [
            "local-coverage",
            "--b", "500", "--w", "0",
            "--ox", "5", "--oy", "5", "--side", "10",
            "--trials", "10", "--seed", "3",
            "--out", str(out),
        ]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,tau,Z,Y,X_b,pair_found"
        assert len(lines) == 11
        summary = json.loads(capsys.readouterr().out)
        assert summary["trials"] == 10
        assert 0.0 <= summary["pair_dominates_rate"] <= 1.0

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(
                [
                    "local-coverage",
                    "--b", "400", "--w", "400",
                    "--ox", "5", "--oy", "5", "--side", "10",
                    "--trials", "8", "--seed", "1",
                    "--out", str(out),
                ]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_invalid_center_exits_one(self, capsys):
        assert main(
            [
                "local-coverage",
                "--b", "400", "--w", "0",
                "--ox", "0.0001", "--oy", "5", "--side", "10",
                "--trials", "2", "--seed", "1",
            ]
        ) == 1


class TestSweep:
    def _write_config(self, tmp_path, trials=2):
        cfg = {
            "schedules": [
                {
                    "n": 300,
                    "ell_rule": {"kind": "sqrt", "value": 1.0},
                    "trials": trials,
                    "seed": 4,
                }
            ]
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_csv_output_and_aggregates(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--parallel", "1"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("schema_ver,n,side,seed,trial")
        assert len(lines) == 3
        summary = json.loads(capsys.readouterr().out)
        assert summary["aggregates"][0]["trials"] == 2

    def test_parallel_default_matches_one(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, trials=3)
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(seq), "--parallel", "1"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(par)]) == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "line" in capsys.readouterr().err

    def test_bad_entry_diagnostics(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schedules": [{"n": 10}]}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "schedules[0]" in capsys.readouterr().err
        cfg = self._write_config(tmp_path)
        data = json.loads(cfg.read_text())
        data["schedules"][0]["alpha_profile"] = "sqrt"
        cfg.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "schedules[0]: unknown key 'alpha_profile'" in capsys.readouterr().err
        del data["schedules"][0]["alpha_profile"]
        data["schedules"][0]["ell_rule"]["vaule"] = 3
        cfg.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "schedules[0]: unknown ell_rule key 'vaule'" in capsys.readouterr().err
        del data["schedules"][0]["ell_rule"]["vaule"]
        for key, value, message in [
            ("n", 1, "n must be an integer >= 2"),
            ("n", 100.7, "n must be an integer >= 2"),
            ("n", True, "n must be an integer >= 2"),
            ("n", "100", "n must be an integer >= 2"),
            ("n", 10**30, f"{10**30} points: vertex indices are int32, so n must be below {2**31}"),
            ("trials", 1.9, "trials must be an integer >= 0"),
            ("seed", 2.5, "seed must be an integer >= 0"),
            ("value", "nan", "ell_rule value must be a number"),
            ("value", float("nan"), "square side must be positive and finite"),
            ("value", -1, "square side must be positive and finite"),
        ]:
            entry = json.loads(json.dumps(data["schedules"][0]))
            (entry["ell_rule"] if key == "value" else entry)[key] = value
            cfg.write_text(json.dumps({"schedules": [data["schedules"][0], entry]}))
            assert main(["sweep", "--config", str(cfg)]) == 1
            assert f"sweep config schedules[1]: {message}" in capsys.readouterr().err
        cfg.write_text(json.dumps({"schedules": 5}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "'schedules' list of objects" in capsys.readouterr().err
        cfg.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg), "--parallel", "0"]) == 1
        assert "--parallel must be >= 1" in capsys.readouterr().err

    def test_rows_replay_with_run_rule2(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, trials=2)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--parallel", "1"]) == 0
        capsys.readouterr()
        header, *lines = out.read_text().splitlines()
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            replay = ["run-rule2", "--n", row["n"], "--side", row["side"], "--seed", row["seed"]]
            assert main(replay) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["cds_size"] == int(row["cds_size"])
            assert payload["pruned"] == int(row["U"])
            assert payload["dominating"] == (row["dominating"] == "true")

    def test_no_partial_output_on_failure(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schedules": [{"n": 10}]}))
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


class TestGeomCheck:
    def test_all_rows_pass(self, tmp_path):
        out = tmp_path / "geom.csv"
        args = ["geom-check", "--seed", "2", "--configs", "4", "--samples", "20000", "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,statistic,bound,pass"
        assert len(lines) > 8
        assert all(line.endswith(",true") for line in lines[1:])
        # the rows and their verdicts are pinned, as CI's cut of this run is;
        # the statistics are not, since they pass through libm
        rows = "".join(f"{name},{ok}\n" for name, *_, ok in (line.split(",") for line in lines))
        assert rows == (DATA / "cli" / "geom_check_rows.csv").read_text()

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(
                ["geom-check", "--seed", "2", "--configs", "3", "--samples", "10000", "--out", str(out)]
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_default_flags_pass(self, tmp_path):
        # seed 0's largest omitted |z| of 20 is 3.55: above 3, below the
        # Sidak bound for 20 configurations
        out = tmp_path / "geom.csv"
        assert main(["geom-check", "--out", str(out)]) == 0
        rows = dict(line.split(",", 1) for line in out.read_text().splitlines()[1:])
        stat, bound, ok = rows["omitted_vs_oracle_max_z"].split(",")
        assert float(stat) == pytest.approx(3.5507, abs=1e-4)
        assert float(bound) == pytest.approx(3.8168, abs=1e-4) and ok == "true"

    def test_no_standard_error_fails(self, tmp_path):
        # one sample per configuration gives no standard error to scale by
        out = tmp_path / "geom.csv"
        assert main(["geom-check", "--samples", "1", "--configs", "3", "--out", str(out)]) == 2
        oracle = [line.split(",") for line in out.read_text().splitlines() if "_vs_oracle_" in line]
        assert len(oracle) == 4
        assert all(stat == "nan" and ok == "false" for _, stat, _, ok in oracle)

    def test_oracle_row_catches_a_half_percent_lens_error(self, tmp_path, monkeypatch):
        exact = geometry.lens_area
        monkeypatch.setattr(geometry, "lens_area", lambda d: 1.005 * exact(d))
        out = tmp_path / "geom.csv"
        assert main(["geom-check", "--out", str(out)]) == 2
        rows = dict(line.split(",", 1) for line in out.read_text().splitlines()[1:])
        stat, bound, ok = rows["lens_vs_oracle_max_z"].split(",")
        assert ok == "false" and float(stat) > float(bound)

    def test_oracle_row_catches_an_area_for_disjoint_disks(self, tmp_path, monkeypatch):
        # disks at distance d > 2 are disjoint: the estimate is 0 with no
        # standard error, and an exact area of 0.3 is far outside the bound
        exact, drawn = geometry.lens_area, []
        monkeypatch.setattr(geometry, "lens_area", lambda d: drawn.append(d) or (0.3 if d >= 2 else exact(d)))
        out = tmp_path / "geom.csv"
        assert main(["geom-check", "--seed", "0", "--configs", "20", "--out", str(out)]) == 2
        assert any(d > 2 for d in drawn)
        rows = dict(line.split(",", 1) for line in out.read_text().splitlines()[1:])
        assert rows["lens_vs_oracle_max_z"].split(",")[::2] == ["inf", "false"]

    @pytest.mark.parametrize("configs", ["0", "-3"])
    def test_configs_below_one_exits_one(self, tmp_path, capsys, configs):
        out = tmp_path / "geom.csv"
        assert main(["geom-check", "--configs", configs, "--samples", "1000", "--out", str(out)]) == 1
        assert "--configs must be >= 1" in capsys.readouterr().err
        assert not out.exists()
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


@pytest.mark.parametrize("command", ["run-rule2", "verify"])
@pytest.mark.parametrize(
    "line,problem",
    [("2 nan 2.0", "has non-finite coordinates"), ("2 5.5 2.0", "at (5.5, 2.0) lies outside the square of side 5.0")],
    ids=["non-finite", "outside"],
)
def test_bad_point_exits_one(tmp_path, capsys, command, line, problem):
    path = tmp_path / "pts.txt"
    path.write_text(f"2 5.0 0\n1 1.0 1.0\n\n{line}\n")
    assert main([command, "--graph", str(path)]) == 1
    assert f"bad point in {path}: line 4: vertex 2 {problem}" in capsys.readouterr().err
