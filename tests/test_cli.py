"""Command-line interface: flags, exit codes, and byte determinism."""

import json
import os

import numpy as np
import pytest

from udgprune import rgg
from udgprune.cli import main
from udgprune.geometry import SquareRegion


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

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(
                ["geom-check", "--seed", "2", "--configs", "3", "--samples", "10000", "--out", str(out)]
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
