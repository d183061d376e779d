"""Seeded workload inputs for the traceavert benchmark.

Each workload is a list of ops; an op is one ``traceavert.cli.main(argv)``
call plus the facts its output check needs.  Everything here is derived from
the workload name and the seed with :class:`random.Random`, so the same seed
always gives the same files and argv.  This module imports neither numpy nor
traceavert: the parent process that spawns the timed interpreters stays light.
"""
from __future__ import annotations

import csv
import datetime as dt
import json
import math
import random
from pathlib import Path

WORKLOADS = ("nl31-estimate", "long-estimate", "nl31-sweep", "oracle-simulate")

#: bundled 31-week dataset, relative to the checkout root
FIXTURE = Path("src/traceavert/data/weekly_cases.csv")
PRESPLIT_COLUMNS = ("week", "c_total", "c_sym", "c_pers", "c_ct", "c_app_minus", "c_app_plus")

#: ops drawn per run; the closed loop wraps round only if a run outlasts them
OP_COUNT = 5000
#: length of the synthetic series.  At the default parameters the
#: counterfactual multiplier grows about x e^0.017 per week, so 10k weeks end
#: near 1e72 (below 1e97 for any drawn parameters), still finite; near 40k
#: weeks it would overflow to inf, a known defect and not a load to measure.
LONG_WEEKS = 10_000
#: the CLI default tree count for ``simulate``
ORACLE_TREES = 100_000
SWEEP_VALUES = 4

#: fractional parameters every estimate op overrides, each drawn from this range
ESTIMATE_PARAMS = ("u_app", "f_ct", "f_app", "e_app")
FRACTION_RANGE = (0.05, 0.95)
#: sweep ops rotate through these parameters; delays take distinct integer
#: values from their range (a delay of 0 is rejected by the TAF calculus)
SWEEP_PARAMS = ("u_app", "f_ct", "e_app", "t_ct", "t_app")
DELAY_RANGES = {"t_ct": range(1, 8), "t_app": range(1, 7)}


def read_fixture_rows(root: Path) -> list[dict[str, float | str]]:
    with (root / FIXTURE).open(encoding="utf-8", newline="") as handle:
        return [
            {name: (row[name] if name == "week" else float(row[name])) for name in PRESPLIT_COLUMNS}
            for row in csv.DictReader(handle)
        ]


def iso_week_labels(first: str, count: int) -> list[str]:
    """``count`` consecutive ISO week labels (``YYYY-WW``) starting at ``first``."""
    year, week = (int(part) for part in first.split("-"))
    start = dt.date.fromisocalendar(year, week, 1)
    labels = []
    for offset in range(count):
        iso = (start + dt.timedelta(weeks=offset)).isocalendar()
        labels.append(f"{iso.year}-{iso.week:02d}")
    return labels


def write_long_series(root: Path, path: Path, rng: random.Random, weeks: int) -> None:
    """Synthetic presplit series: resampled type shares on a bounded random walk.

    Each week takes the per-type shares of a randomly chosen bundled row and
    applies them, rounded down, to a total that follows a reflected random
    walk in log space, so the residual missed count is never negative.
    """
    rows = read_fixture_rows(root)
    low, high = math.log(20_000.0), math.log(400_000.0)
    level = math.log(float(rows[0]["c_total"]))
    with path.open("w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(PRESPLIT_COLUMNS)
        for label in iso_week_labels(str(rows[0]["week"]), weeks):
            level += rng.gauss(0.0, 0.08)
            if level > high:
                level = 2 * high - level
            elif level < low:
                level = 2 * low - level
            total = round(math.exp(level))
            source = rng.choice(rows)
            parts = [math.floor(total * float(source[name]) / float(source["c_total"]))
                     for name in PRESPLIT_COLUMNS[2:]]
            out.writerow([label, total, *parts])


def _fraction(rng: random.Random) -> str:
    return f"{rng.uniform(*FRACTION_RANGE):.3f}"


def estimate_argv(out_dir: Path, data: Path | None) -> list[str]:
    return ["estimate", "--out", str(out_dir)] + (["--data", str(data)] if data else [])


def golden_op(out_dir: Path, weeks: int) -> dict:
    """``estimate`` at the defaults on the bundled data: must match the golden summary."""
    return {"argv": estimate_argv(out_dir, None), "overrides": {}, "golden": True, "units": weeks}


def estimate_ops(rng: random.Random, out_dir: Path, data: Path | None, weeks: int) -> list[dict]:
    """Op 0 runs at the defaults; on the bundled data it is the golden op."""
    base = estimate_argv(out_dir, data)
    ops = [golden_op(out_dir, weeks) if data is None
           else {"argv": base, "overrides": {}, "golden": False, "units": weeks}]
    for _ in range(OP_COUNT - 1):
        overrides = {name: _fraction(rng) for name in ESTIMATE_PARAMS}
        argv = base + [arg for name, value in overrides.items()
                       for arg in ("--param", f"{name}={value}")]
        ops.append({"argv": argv, "overrides": overrides, "golden": False, "units": weeks})
    return ops


def sweep_ops(rng: random.Random) -> list[dict]:
    """Op 0 sweeps ``u_app``, so the cold op costs the same for every seed."""
    ops = []
    for index in range(OP_COUNT):
        name = SWEEP_PARAMS[index % len(SWEEP_PARAMS)]
        if name in DELAY_RANGES:
            values = [str(v) for v in sorted(rng.sample(DELAY_RANGES[name], SWEEP_VALUES))]
        else:
            values = [_fraction(rng) for _ in range(SWEEP_VALUES)]
        ops.append({"argv": ["sweep", "--sweep", f"{name}={','.join(values)}"],
                    "param": name, "values": values, "units": len(values)})
    return ops


def simulate_ops(rng: random.Random, trees: int) -> list[dict]:
    return [{"argv": ["simulate", "--trees", str(trees), "--seed", str(seed)], "trees": trees,
             "units": 6 * trees}
            for seed in (rng.randrange(2**31) for _ in range(OP_COUNT))]


def make_inputs(
    root: Path,
    workload: str,
    seed: int,
    work_dir: Path,
    weeks: int = LONG_WEEKS,
    trees: int = ORACLE_TREES,
) -> dict:
    """Write the workload's input files into ``work_dir`` and return its op plan.

    The plan is also written to ``work_dir/inputs.json``, so a run can be
    replayed and audited.  ``weeks`` and ``trees`` shrink the inputs for the
    smoke tests; the benchmark itself always uses the defaults.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"traceavert-bench:{workload}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    out_dir = work_dir / "out"
    data = golden = None
    if workload == "long-estimate":
        data = work_dir / "long.csv"
        write_long_series(root, data, rng, weeks)
    if workload.endswith("-estimate"):
        length = weeks if data else len(read_fixture_rows(root))
        ops, unit = estimate_ops(rng, out_dir, data, length), "weeks"
    elif workload == "nl31-sweep":
        ops, unit = sweep_ops(rng), "parameter values"
        golden = golden_op(out_dir, len(read_fixture_rows(root)))
    else:
        ops, unit = simulate_ops(rng, trees), "trees"
    plan = {
        "workload": workload,
        "seed": seed,
        "unit": unit,
        "data": str(data or root / FIXTURE),
        "work_dir": str(work_dir),
        "out_dir": str(out_dir),
        "ops": ops,
    }
    if golden:
        plan["golden_op"] = golden
    (work_dir / "inputs.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan
