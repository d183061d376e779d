"""Smoke tests of the benchmark itself: ``python -m pytest bench``.

Every workload runs at a tiny size with no failed op, and every output check
rejects a deliberately corrupted result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import worker
from ops import run_op
from workloads import WORKLOADS, iso_week_labels, make_inputs

ROOT = Path(__file__).resolve().parent.parent
TINY = {"weeks": 80, "trees": 2000}


def tiny_plan(workload: str, tmp_path: Path, seed: int = 7) -> dict:
    return make_inputs(ROOT, workload, seed, tmp_path, **TINY)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean_at_tiny_size(workload, trace, tmp_path):
    result = worker.run_loop(tiny_plan(workload, tmp_path), seconds=0.3, trace=trace,
                             cold_starts=not trace)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] >= 2
    assert len(result["reference_ms"]) == len(result["latencies_ms"])
    if trace:
        assert set(result["layers"]) == set(tracing.UNITS)
        assert result["layers"]["cli.self_ms"] >= 0.0


def test_inputs_are_seeded_and_valid(tmp_path):
    first = tiny_plan("long-estimate", tmp_path / "a")
    again = tiny_plan("long-estimate", tmp_path / "b")
    other = tiny_plan("long-estimate", tmp_path / "c", seed=8)
    assert first["ops"] == json.loads(json.dumps(again["ops"]).replace("/b/", "/a/"))
    assert (tmp_path / "a" / "long.csv").read_bytes() == (tmp_path / "b" / "long.csv").read_bytes()
    assert (tmp_path / "a" / "long.csv").read_bytes() != (tmp_path / "c" / "long.csv").read_bytes()
    series = checks.Series(tmp_path / "a" / "long.csv")
    assert series.labels == iso_week_labels("2020-42", TINY["weeks"])
    assert len(set(series.labels)) == TINY["weeks"]
    assert (series.counts >= 0).all()


def test_every_drawn_parameter_set_validates(tmp_path):
    from traceavert.params import params_from_config, validate

    for workload in ("nl31-estimate", "nl31-sweep"):
        for op in tiny_plan(workload, tmp_path / workload)["ops"][:200]:
            overrides = op.get("overrides") or {}
            sets = [overrides] if "values" not in op else [{op["param"]: v} for v in op["values"]]
            for params in sets:
                assert validate(params_from_config(None, params)).ok, params


def test_iso_labels_cross_year_boundaries():
    assert iso_week_labels("2020-52", 3) == ["2020-52", "2020-53", "2021-01"]


def _estimate(tmp_path: Path, op_index: int):
    plan = tiny_plan("nl31-estimate", tmp_path)
    op = plan["ops"][op_index]
    _, stdout, error = run_op(op)
    assert error is None
    out_dir = Path(plan["out_dir"])
    series = checks.Series(plan["data"])
    checks.check_estimate(op, series, out_dir)
    return op, series, out_dir


def _rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_golden_check_rejects_a_changed_summary(tmp_path):
    op, series, out_dir = _estimate(tmp_path, 0)
    _rewrite(out_dir / "summary.csv", "803079", "803078")
    with pytest.raises(checks.CheckFailed, match="golden"):
        checks.check_estimate(op, series, out_dir)


def test_closed_form_check_rejects_a_changed_week(tmp_path):
    op, series, out_dir = _estimate(tmp_path, 1)
    lines = (out_dir / "weekly.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[10].split(",")
    cells[2] = str(int(cells[2]) + 2)
    lines[10] = ",".join(cells)
    (out_dir / "weekly.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="c_not_ct"):
        checks.check_estimate(op, series, out_dir)


def test_closed_form_check_rejects_a_changed_summary(tmp_path):
    op, series, out_dir = _estimate(tmp_path, 1)
    lines = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    key, ct, app = lines[1].split(",")
    lines[1] = f"{key},{int(ct) + 1},{app}"
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="averted_cases ct"):
        checks.check_estimate(op, series, out_dir)


def test_finite_check_rejects_nan(tmp_path):
    op, series, out_dir = _estimate(tmp_path, 1)
    lines = (out_dir / "weekly.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[6] = "nan"
    lines[5] = ",".join(cells)
    (out_dir / "weekly.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="not finite"):
        checks.check_estimate(op, series, out_dir)


def test_sweep_check_rejects_a_changed_row(tmp_path):
    plan = tiny_plan("nl31-sweep", tmp_path)
    op = plan["ops"][0]
    _, stdout, error = run_op(op)
    assert error is None
    series = checks.Series(plan["data"])
    checks.check_sweep(op, series, stdout)
    lines = stdout.splitlines()
    cells = lines[2].split(",")
    cells[3] = str(int(cells[3]) + 3)
    lines[2] = ",".join(cells)
    with pytest.raises(checks.CheckFailed, match="s_app_total"):
        checks.check_sweep(op, series, "\n".join(lines) + "\n")


def test_oracle_check_rejects_an_outlying_estimate(tmp_path):
    plan = tiny_plan("oracle-simulate", tmp_path)
    op = plan["ops"][0]
    _, stdout, error = run_op(op)
    assert error is None
    analytic = checks.per_type({})[1]
    checks.check_simulate(op, analytic, stdout)
    lines = stdout.splitlines()
    cells = lines[1].split(",")
    cells[2] = f"{analytic[0] + 5.0 * float(cells[3]):.4f}"
    lines[1] = ",".join(cells)
    with pytest.raises(checks.CheckFailed, match=r"\|z\|"):
        checks.check_simulate(op, analytic, "\n".join(lines) + "\n")


def test_failed_op_is_counted(tmp_path):
    plan = tiny_plan("nl31-sweep", tmp_path)
    plan["ops"] = [plan["ops"][0], {**plan["ops"][1], "argv": ["sweep", "--sweep", "t_ct=0"]}]
    result = worker.run_loop(plan, seconds=0.2, trace=False)
    assert result["failed"] >= 1
    assert "exit status 2" in result["errors"][0]


def test_sweep_run_counts_the_golden_op(tmp_path):
    plan = tiny_plan("nl31-sweep", tmp_path)
    plan["golden_op"]["argv"] += ["--param", "u_app=0.5"]
    result = worker.run_loop(plan, seconds=0.2, trace=False)
    assert result["failed"] == 1
    assert result["errors"][0].startswith("check failed")


def test_tail_percentile_keeps_ten_samples_above():
    latencies = [float(i) for i in range(100)]
    value, percentile = run.tail(latencies)
    assert sum(1 for x in latencies if x > value) == 10
    assert percentile == pytest.approx(90.0)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nl31-estimate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
