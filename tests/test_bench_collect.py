"""tools/bench_collect.py: pairing, spreads, wins and counters."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_collect.py"
_spec = importlib.util.spec_from_file_location("bench_collect", _PATH)
bench_collect = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_collect)


def _write(results, seed, ms, counters, trace=0, failed=0, sha=None):
    results.mkdir(exist_ok=True)
    record = {
        "environment": {"python": "3", "src_sha256": sha or results.name, "seed": seed},
        "summary": {
            "units": 5,
            "attempted": 5,
            "failed": failed,
            "loop_wall_s": 3 * ms,
            "raw": {"trial_ms_p50": 2 * ms},
        },
        "metrics": {"trial_ms_p50": ms, "peak_rss_mb": 100.0},
        "counters": counters,
        "failures": [],
    }
    (results / f"sweep-sqrt-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


@pytest.fixture()
def sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, p_ms, c_ms in [(1, 10.0, 8.0), (2, 12.0, 13.0), (3, 11.0, 9.0)]:
        _write(parent, seed, p_ms, {"edges": seed})
        _write(change, seed, c_ms, {"edges": seed}, failed=seed == 2)
    _write(parent, 4, 50.0, {"edges": 4})  # no partner
    return parent, change


def test_pairs_by_seed_with_spreads_and_wins(sides):
    parent, change = sides
    out = bench_collect.compare(
        bench_collect.read_records(parent),
        bench_collect.read_records(change),
        {"trial_ms_p50": "lower", "peak_rss_mb": "lower"},
    )
    entry = out["sweep-sqrt"]["trace0"]
    assert entry["seeds"] == [1, 2, 3] and entry["unpaired_seeds"]["parent"] == [4]
    assert entry["failed"] == {"parent": 0, "change": 1}
    ms = entry["metrics"]["trial_ms_p50"]
    assert ms["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5, "values": [10.0, 12.0, 11.0]}
    assert ms["change"]["median"] == 9.0 and ms["change_wins"] == 2
    assert ms["relative_change"] == pytest.approx(-2 / 11)
    # a tie wins for neither side, and raw timings take the metric's direction
    assert entry["metrics"]["peak_rss_mb"]["change_wins"] == 0
    assert entry["metrics"]["raw.trial_ms_p50"]["change_wins"] == 2
    assert entry["counters_identical"] and entry["counters"]["2"] == {"edges": 2}
    assert entry["loop_wall_s"] == {"parent": 33.0, "change": 27.0}
    assert entry["environment"]["change"]["src_sha256"] == "change"


def test_counter_drift_is_reported(sides):
    parent, change = sides
    _write(change, 3, 9.0, {"edges": 99})
    out = bench_collect.compare(bench_collect.read_records(parent), bench_collect.read_records(change), {})
    entry = out["sweep-sqrt"]["trace0"]
    assert not entry["counters_identical"]
    assert entry["counters"]["3"] == {"parent": {"edges": 3}, "change": {"edges": 99}}


def test_cli_writes_the_file(sides, tmp_path):
    parent, change = sides
    out = tmp_path / "BENCH_t.json"
    assert bench_collect.main([str(parent), str(change), "--tag", "t", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["tag"] == "t" and data["workloads"]["sweep-sqrt"]["trace0"]["pairs"] == 3
    assert data["src_sha256"] == {"parent": "parent", "change": "change"}
    assert bench_collect.main([str(tmp_path / "nowhere"), str(change), "--tag", "t"]) == 1


def test_same_build_on_both_sides_is_refused(sides, tmp_path, capsys):
    parent, _ = sides
    out = tmp_path / "BENCH_t.json"
    assert bench_collect.main([str(parent), str(parent), "--tag", "t", "--out", str(out)]) == 1
    assert "both sides ran the same build: src_sha256 parent" in capsys.readouterr().err
    assert not out.exists()


def test_side_mixing_builds_is_refused(sides, tmp_path, capsys):
    parent, change = sides
    _write(change, 3, 9.0, {"edges": 3}, sha="other")
    out = tmp_path / "BENCH_t.json"
    assert bench_collect.main([str(parent), str(change), "--tag", "t", "--out", str(out)]) == 1
    assert f"{change} mixes builds: src_sha256 change, other" in capsys.readouterr().err
    assert not out.exists()
