"""Compare two sets of perfbench runs: ``compare.py A/ B/``.

``A/`` (the parent) and ``B/`` (the change) each hold the
``*.result.json`` files of several gated runs, searched recursively.
Per (workload, end-to-end metric) the rule of the choosing-metrics
guide, section 8, is applied with the bounds of ``BENCHMARK.json``:

* each side's median and quartiles, and B's win share over the pairs
  (runs are paired by seed, ties count for neither side);
* ``unresolved`` when either side's run-to-run spread (quartile distance
  over median) exceeds the bound, unless every run of B reads better
  than every run of A;
* ``regression`` when B's median is worse than A's by more than the
  bound: the exit code is then 1;
* ``gain`` only when B wins nine tenths of the pairs and the medians
  differ by more than A's own quartile distance.

``compare.py --self [--runs R]`` runs two alternating sets of the same
checkout, compares them and writes ``results/perfbench/agreement.json``:
the benchmark's own repeatability check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from stats import spread
RESULTS = ROOT / "results" / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A gain needs this share of the pairs (choosing-metrics, section 8).
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def judge(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Verdict for one (workload, metric); ``a`` and ``b`` are the two
    sides' run values, paired by position."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_mid, a_q3 = quartiles(a)
    b_q1, b_mid, b_q3 = quartiles(b)
    a_spread, b_spread = spread(a), spread(b)
    worse_by = sign * (b_mid - a_mid) / abs(a_mid) if a_mid else 0.0
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    losses = sum(sign * (y - x) > 0 for x, y in pairs)
    b_always_better = max(sign * y for y in b) < min(sign * x for x in a)
    if max(a_spread, b_spread) > bound and not b_always_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    elif (
        wins >= WIN_SHARE * len(pairs)
        and abs(b_mid - a_mid) > a_q3 - a_q1
    ):
        verdict = "gain"
    else:
        verdict = "within bound"
    return {
        "a": {"median": a_mid, "q1": a_q1, "q3": a_q3, "spread": a_spread, "runs": a},
        "b": {"median": b_mid, "q1": b_q1, "q3": b_q3, "spread": b_spread, "runs": b},
        "worse_by": worse_by,
        "bound": bound,
        "pairs": len(pairs),
        "b_wins": wins,
        "b_losses": losses,
        "verdict": verdict,
    }


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: metrics}}`` of the gated results under
    ``directory``."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.rglob("*.result.json")):
        result = json.loads(path.read_text())
        if result.get("trace"):
            continue
        seeds = runs.setdefault(result["workload"], {})
        if result["seed"] in seeds:
            raise SystemExit(
                f"{directory}: two runs of {result['workload']} with seed "
                f"{result['seed']}; give each run of a set its own seed"
            )
        seeds[result["seed"]] = result["metrics"]
    if not runs:
        raise SystemExit(f"{directory}: no *.result.json of a gated run found")
    return runs


def compare(a_dir: Path, b_dir: Path) -> dict:
    a_runs, b_runs = load(a_dir), load(b_dir)
    table: dict[str, dict[str, dict]] = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            continue
        seeds = sorted(set(a_runs[workload]) & set(b_runs[workload]))
        if not seeds:
            raise SystemExit(f"{workload}: the two sets share no seed to pair on")
        table[workload] = {
            metric["name"]: judge(
                [a_runs[workload][s][metric["name"]]["value"] for s in seeds],
                [b_runs[workload][s][metric["name"]]["value"] for s in seeds],
                metric["better"],
                metric["bound"],
            )
            for metric in SPEC["end_to_end"]
        }
    return table


def report(table: dict) -> None:
    for workload, metrics in table.items():
        print(f"\n== {workload} ==")
        print(f"  {'metric':18s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
              f"{'B worse by':>10s} {'bound':>6s} {'B wins':>7s}  verdict")
        for name, row in metrics.items():
            a, b = row["a"], row["b"]
            print(
                f"  {name:18s} "
                f"{a['median']:12.5g} [{a['q1']:9.5g},{a['q3']:9.5g}] "
                f"{b['median']:12.5g} [{b['q1']:9.5g},{b['q3']:9.5g}] "
                f"{row['worse_by']:+10.2%} {row['bound']:6.1%} "
                f"{row['b_wins']:3d}/{row['pairs']:<3d}  {row['verdict']}"
            )


def run_self(runs: int, seconds: float | None) -> tuple[Path, Path]:
    """Two sets of ``runs`` runs of this checkout, alternating which
    set goes first; seed ``i`` is run once for each set."""
    a_dir, b_dir = RESULTS / "self" / "A", RESULTS / "self" / "B"
    for seed in range(runs):
        order = (a_dir, b_dir) if seed % 2 == 0 else (b_dir, a_dir)
        for side in order:
            for workload in (w["name"] for w in SPEC["workloads"]):
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--out", str(side / str(seed)),
                ]
                if seconds is not None:
                    command += ["--seconds", str(seconds)]
                print(f"[{side.name} seed {seed}] {workload}", flush=True)
                subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return a_dir, b_dir


def agreement_summary(table: dict) -> dict:
    """What the README quotes: per (workload, metric) the two set
    medians, their ratio, each set's spread and the largest distance of
    a single run from the median of all runs."""
    summary: dict[str, dict] = {}
    for workload, metrics in table.items():
        summary[workload] = {}
        for name, row in metrics.items():
            runs = row["a"]["runs"] + row["b"]["runs"]
            centre = statistics.median(runs)
            summary[workload][name] = {
                "median_a": row["a"]["median"],
                "median_b": row["b"]["median"],
                "set_difference": abs(row["worse_by"]),
                "spread_a": row["a"]["spread"],
                "spread_b": row["b"]["spread"],
                "max_single_run_deviation": max(
                    abs(v - centre) / abs(centre) for v in runs
                ) if centre else 0.0,
                "bound": row["bound"],
                "verdict": row["verdict"],
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="*", type=Path, metavar="DIR",
                        help="A/ (parent) and B/ (change)")
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="run two alternating sets of this checkout")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set with --self (default 5)")
    parser.add_argument("--seconds", type=float,
                        help="run length with --self (default: BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.self_check:
        if args.dirs:
            parser.error("--self takes no directories")
        a_dir, b_dir = run_self(args.runs, args.seconds)
    elif len(args.dirs) == 2:
        a_dir, b_dir = args.dirs
    else:
        parser.error("give two directories, or --self")

    table = compare(a_dir, b_dir)
    report(table)
    verdicts = [row["verdict"] for metrics in table.values() for row in metrics.values()]
    if args.self_check:
        RESULTS.mkdir(parents=True, exist_ok=True)
        (RESULTS / "agreement.json").write_text(
            json.dumps(agreement_summary(table), indent=1)
        )
        # Two sets of the same code must agree: anything but "within
        # bound" means the benchmark, not the program, moved.
        bad = [v for v in verdicts if v != "within bound"]
        print(f"\nself-agreement: {len(verdicts) - len(bad)}/{len(verdicts)} within bound")
        return 1 if bad else 0
    regressions = verdicts.count("regression")
    print(f"\n{regressions} regression(s), {verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('gain')} gain(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
