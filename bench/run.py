"""qindlab benchmark: one command, one workload per call, one JSON result line.

    python3 bench/run.py --workload {suite,wide} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. Each round runs in a fresh single-threaded process (worker.py)
until ``--seconds`` have passed, always in whole rounds. With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` each
round runs twice, untraced and then traced, and the line carries the
per-layer metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

WORKLOADS = ("suite", "wide")
TIME_BUDGET_S = 170.0
SINGLE_THREAD = {
    k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fqind_trials_per_s", "trials/s"),
    ("qind_trials_per_s", "trials/s"),
    ("gqind_trials_per_s", "trials/s"),
    ("suite_s", "s"),
    ("certify_sampled_s", "s"),
    ("certify_exhaustive_s", "s"),
)


def per_layer_metrics() -> tuple[tuple[str, str], ...]:
    out = []
    for group in tracing.TIMED_GROUPS:
        out += [(f"{group}.calls", "count"), (f"{group}.self_s", "s")]
    out.append(("schemes.distinct_keys", "count"))
    for game in tracing.GAMES:
        out += [
            (f"games.{game}.trials", "count"),
            (f"games.{game}.trial_p50_ms", "ms"),
            (f"games.{game}.trial_p99_ms", "ms"),
        ]
    out.append(("games.learning_queries", "count"))
    out += [(f"{group}.self_s", "s") for group in tracing.SELF_GROUPS]
    out += [("channels.pair_action.calls", "count"), ("channels.pair_action.distinct", "count")]
    out += [(f"acceptance.c{n:02d}_s", "s") for n in range(1, 12)]
    out += [(f"acceptance.c{n:02d}.headroom_s", "s") for n in tracing.CEILING_CRITERIA]
    out += [
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.spans", "count"),
    ]
    return tuple(out)


PER_LAYER = per_layer_metrics()


def run_worker(workload: str, seed: int, trace: bool, started: float) -> dict:
    remaining = TIME_BUDGET_S - (time.monotonic() - started)
    if remaining <= 0:
        raise RuntimeError("time budget spent before the round could start")
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(int(trace))]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env={**os.environ, **SINGLE_THREAD},
        stdout=subprocess.PIPE,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def best_ops(rounds: list[dict]) -> list[tuple[list, float, int]]:
    """Each distinct operation of a round's workload as (op, seconds, calls per round).

    An op is [kind, config, count, wall_s, trials marked, slice seconds].
    Rounds repeat the same operations on the same inputs, and operations of
    one kind, config and count do the same work, so each is taken at its
    best: its trial slices at the fastest slice pace any call of its game
    configuration reached in the run, and the rest of the call (all of it
    for a certificate the battery makes) at its fastest.
    """
    pace: dict[str, float] = {}
    rest: dict[str, float] = {}
    sliced: dict[str, int] = {}
    for r in rounds:
        for kind, config, count, wall, _, slices in r["ops"]:
            if slices:
                key = json.dumps([kind, config])
                pace[key] = min(pace.get(key, math.inf), min(slices) / tracing.SLICE)
            key = json.dumps([kind, config, count])
            rest[key] = min(rest.get(key, math.inf), wall - sum(slices))
            sliced[key] = len(slices) * tracing.SLICE
    calls: dict[str, int] = {}
    for kind, config, count, *_ in rounds[0]["ops"]:
        key = json.dumps([kind, config, count])
        calls[key] = calls.get(key, 0) + 1
    out = []
    for key, n in calls.items():
        op = json.loads(key)
        trials = sliced[key] * pace[json.dumps(op[:2])] if sliced[key] else 0.0
        out.append((op, rest[key] + trials, n))
    return out


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    ops = best_ops(rounds)
    outside = min(r["round_s"] - sum(op[3] for op in r["ops"] + r["certificates"]) for r in rounds)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in rounds),
        "suite_s": outside + sum(seconds * n for _, seconds, n in ops),
    }
    for game in tracing.GAMES:
        timed = [(op[2] * n, seconds * n) for op, seconds, n in ops if op[0] == game]
        values[f"{game}_trials_per_s"] = sum(c for c, _ in timed) / sum(t for _, t in timed)
    # the certificate groups make many short, identical calls spread over
    # the run: the median of their wall times is steadier than the fastest
    for kind in tracing.CERTIFICATES:
        walls = [op[3] for r in rounds for op in r["certificates"] if op[0] == kind]
        values[f"certify_{kind}_s"] = statistics.median(walls)
    return {name: values[name] for name, _ in END_TO_END}


def per_layer(rounds: list[dict], traced: list[dict]) -> dict[str, float]:
    n = len(traced)
    summaries = [t["trace"] for t in traced]
    values: dict[str, float] = {}
    for group in tracing.TIMED_GROUPS + tracing.SELF_GROUPS:
        calls = sum(s["groups"].get(group, [0, 0.0])[0] for s in summaries)
        seconds = sum(s["groups"].get(group, [0, 0.0])[1] for s in summaries)
        values[f"{group}.calls"] = calls / n
        values[f"{group}.self_s"] = seconds / n
    values["schemes.distinct_keys"] = sum(s["distinct_keys"] for s in summaries) / n
    for game in tracing.GAMES:
        ms = [v for s in summaries for v in s["trial_ms"][game]]
        values[f"games.{game}.trials"] = len(ms) / n
        values[f"games.{game}.trial_p50_ms"] = percentile(ms, 50)
        values[f"games.{game}.trial_p99_ms"] = percentile(ms, 99)
    for name in ("games.learning_queries", "channels.pair_action.calls", "channels.pair_action.distinct"):
        values[name] = sum(s["counts"].get(name, 0) for s in summaries) / n
    # criterion seconds and headroom come from the untraced rounds: tracing
    # slows every criterion, which would understate its headroom
    for number in range(1, 12):
        timed = [r["criteria"][str(number)] for r in rounds if str(number) in r["criteria"]]
        seconds = statistics.fmean(t[0] for t in timed) if timed else 0.0
        values[f"acceptance.c{number:02d}_s"] = seconds
        if number in tracing.CEILING_CRITERIA:
            ceiling = timed[0][1] if timed and timed[0][1] is not None else seconds
            values[f"acceptance.c{number:02d}.headroom_s"] = ceiling - seconds
    traced_wall = statistics.fmean(t["round_s"] for t in traced)
    untraced_wall = statistics.fmean(r["round_s"] for r in rounds)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.unattributed_s"] = statistics.fmean(s["root_self_s"] for s in summaries)
    values["trace.spans"] = statistics.fmean(s["spans"] for s in summaries)
    return {name: values[name] for name, _ in PER_LAYER}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qindlab" / "__init__.py").is_file():
        print(f"error: no qindlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    rounds: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            rounds.append(run_worker(args.workload, args.seed, False, started))
            if args.trace:
                traced.append(run_worker(args.workload, args.seed, True, started))
            if time.monotonic() - started >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in rounds + traced for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(rounds, traced), dict(PER_LAYER)
    else:
        values, units = end_to_end(rounds), dict(END_TO_END)
    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
