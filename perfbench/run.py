"""YOSO pipeline benchmark: run one named workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-cold --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (the program is imported from ``src``).
Each measured run is a fresh ``perfbench/child.py`` process, started one
after another until ``--seconds`` have gone by and at least MIN_RUNS
have finished.  A run that exceeds CHILD_LIMIT_S is killed with its
whole process group and counted failed.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced runs on
one input and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``; metric names and units come from
``BENCHMARK.json``.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import child

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: ``variants``: measured runs cycle through this many distinct inputs
#: derived from the seed, so one run's medians average over several
#: searches' genotypes instead of one.
WORKLOADS = {
    "pipeline-cold": {"mode": "pipeline", "workers": 1, "variants": 3},
    "evaluate-cold-w2": {"mode": "evaluate", "workers": 2, "variants": 1},
}
MIN_RUNS = 3
#: Per-run wall-clock limit; a run normally takes 7-19 s.
CHILD_LIMIT_S = 60.0
#: Whole-benchmark limit: no run starts that could end after it, keeping
#: REPLAY_RESERVE_S for the store replay check (a replay takes about 4 s).
TOTAL_LIMIT_S = 165.0
REPLAY_RESERVE_S = 20.0


def percentiles(values: list[float]) -> tuple[float, float]:
    """p50 and p90, linearly interpolated."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _stop_group(pgid: int, grace_s: float = 3.0) -> None:
    """Wait for every process of a run's group to end, killing stragglers."""
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                return
        end = time.monotonic() + grace_s
        while time.monotonic() < end:
            if not _group_alive(pgid):
                return
            time.sleep(0.05)
    print(f"warning: process group {pgid} still present", file=sys.stderr)


def run_child(argv: list[str], timeout: float, env: dict) -> dict | None:
    """One run in a fresh process group; its record, or None if it failed."""
    proc = subprocess.Popen(
        [sys.executable, CHILD, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        failure = "" if proc.returncode == 0 else f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        failure = f"killed after {timeout:.0f} s wall-clock limit"
    finally:
        _stop_group(proc.pid)
    lines = [line for line in out.splitlines() if line.strip()]
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if record is not None and record["errors"] and not failure:
        failure = "output check failed"
    if failure:
        detail = "\n".join(record["errors"]) if record else err[-2000:] or "(no output)"
        print(f"run failed ({failure}):\n{detail}", file=sys.stderr)
    return None if failure else record


def replay_ok(replay: dict | None, digest: str) -> bool:
    """The store replay equals the cold run and read all of it from the
    store: every lookup hit and nothing was recomputed and appended."""
    if replay is None:
        return False
    counts = replay["store"]
    print(f"store replay: digest {replay['digest']}, store {counts}")
    if replay["digest"] != digest:
        print("store replay differs from the cold run", file=sys.stderr)
        return False
    if not 0 < counts["hits"] == counts["lookups"] or counts["appends"]:
        print(f"store replay did not read everything from the store: {counts}", file=sys.stderr)
        return False
    return True


def end_to_end(records: list[dict]) -> dict:
    iters = [ms for r in records for ms in r["iter_ms"]]
    batches = [ms for r in records for ms in r["batch_ms"]]
    print(
        f"samples: {len(records)} runs, {len(iters)} search-iteration and "
        f"{len(batches)} evaluate_many latencies"
    )
    iter_p50, iter_p90 = percentiles(iters)
    batch_p50, batch_p90 = percentiles(batches)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "codesign_s": statistics.median(r["codesign_s"] for r in records),
        "search_iter_p50_ms": iter_p50,
        "search_iter_p90_ms": iter_p90,
        "eval_points_per_s": statistics.median(r["eval_points_per_s"] for r in records),
        "eval_batch_p50_ms": batch_p50,
        "eval_batch_p90_ms": batch_p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def per_layer(untraced: list[dict], traced: list[dict], mode: str) -> dict:
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    values["search.best_reward"] = statistics.median(r["best_reward"] for r in traced)
    # Traced time over untraced time for the same work.
    if mode == "pipeline":
        values["trace.overhead_ratio"] = statistics.median(
            r["codesign_s"] for r in traced
        ) / statistics.median(r["codesign_s"] for r in untraced)
    else:
        values["trace.overhead_ratio"] = statistics.median(
            r["eval_points_per_s"] for r in untraced
        ) / statistics.median(r["eval_points_per_s"] for r in traced)
    return values


def result(attempted: int, failed: int, metrics: dict) -> str:
    """The last line of standard output."""
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    mode = workload["mode"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    start = time.monotonic()
    os.makedirs(".perfbench_work", exist_ok=True)
    work = tempfile.mkdtemp(dir=".perfbench_work")
    base = ["--mode", mode, "--seed", str(args.seed), "--workers", str(workload["workers"])]
    ops_per_run = 1 if mode == "pipeline" else child.MEASURED_BATCHES
    records: list[tuple[bool, dict]] = []
    stores: dict[int, str] = {}
    attempted = failed = runs = 0
    last_s = 0.0
    deadline = start + TOTAL_LIMIT_S
    try:
        while runs < MIN_RUNS or time.monotonic() - start < args.seconds:
            remaining = deadline - REPLAY_RESERVE_S - time.monotonic()
            if remaining < max(2.0 * last_s, 5.0):
                break
            # Traced and untraced runs alternate on the same input, so the
            # two compare for the tracing overhead.
            traced = bool(args.trace) and runs % 2 == 1
            variant = 0 if args.trace else runs % workload["variants"]
            argv = base + ["--trace", str(int(traced)), "--variant", str(variant)]
            store = os.path.join(work, f"run{runs}.store")
            if mode == "pipeline":
                argv += ["--store", store]
            t0 = time.monotonic()
            runs += 1
            record = run_child(argv, min(CHILD_LIMIT_S, remaining), env)
            last_s = time.monotonic() - t0
            attempted += ops_per_run
            if record is None:
                failed += ops_per_run
                continue
            records.append((traced, record))
            stores.setdefault(variant, store)
            pool = (
                f", dispatch threshold {record['dispatch_threshold']}, "
                f"{record['dispatched_batches']}/{ops_per_run} batches to the pool"
                if mode == "evaluate"
                else ""
            )
            print(
                f"run {len(records)} (input {variant}): setup {record['setup_s']:.3f} s, "
                f"codesign {record['codesign_s']:.3f} s, digest {record['digest']}{pool}, "
                f"host {record['host']}" + (" (traced)" if traced else "")
            )
        # A run whose output digest differs from the other runs of the
        # same input failed.
        references = {}
        for variant in {r["variant"] for _, r in records}:
            digests = Counter(r["digest"] for _, r in records if r["variant"] == variant)
            references[variant] = digests.most_common(1)[0][0]
        kept = []
        for traced, record in records:
            if record["digest"] == references[record["variant"]]:
                kept.append((traced, record))
            else:
                print(f"digest {record['digest']} != {references[record['variant']]}", file=sys.stderr)
                failed += ops_per_run
        if mode == "pipeline" and 0 in stores:
            # Store replay: rerun input 0 on a copy of the store its cold
            # run left behind; the result must equal the cold one.
            attempted += 1
            replay = run_child(
                base + ["--variant", "0", "--store", os.path.join(work, "replay.store"),
                        "--store-src", stores[0]],
                min(CHILD_LIMIT_S, max(deadline - time.monotonic(), 1.0)),
                env,
            )
            if not replay_ok(replay, references[0]):
                failed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for traced, r in kept if not traced]
    traced_runs = [r for traced, r in kept if traced]
    if not untraced or (args.trace and not traced_runs):
        # Nothing to measure, but the failures are still reported.
        print("error: too few correct runs to report metrics", file=sys.stderr)
        print(result(attempted, failed, {}))
        return 1
    if args.trace:
        values = per_layer(untraced, traced_runs, mode)
    else:
        values = end_to_end(untraced)
    # Units, and the set of names, come from BENCHMARK.json.
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(values)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(result(attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
