"""One measured run of a workload, in a fresh process.

``run.py`` starts this script once per measured run, so peak RSS and
every evaluator/accuracy cache belong to that run alone.  It prints one
JSON record as the last line of its standard output: the run's timings,
its output digest and the result of the output check.

Modes:

* ``pipeline``: ``YosoSearch.run()`` (Steps 1-3) on the benchmark recipe,
  optionally on a durable store (a fresh empty one, or a copy of a
  store left behind by a cold run).
* ``evaluate``: Step 1 in set-up, then a seeded stream of distinct,
  never-seen genotypes scored in batches by ``create_evaluator(...,
  workers=N).evaluate_many``.

The script is spawn-safe: everything runs under the ``__main__`` check,
because ``workers=2`` pool processes re-import it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback

#: The benchmark recipe: the demo network shape (6 cells, 8 stem
#: channels) on 8 px images, sized so one cold pipeline run takes seconds.
IMAGE_SIZE = 8
TRAIN_SIZE = 128
VAL_SIZE = 32
TEST_SIZE = 16
NUM_CELLS = 6
STEM_CHANNELS = 8
HYPERNET_EPOCHS = 1
HYPERNET_BATCH = 64
PREDICTOR_SAMPLES = 120
SEARCH_ITERATIONS = 34
TOPN = 2
RESCORE_EPOCHS = 1
EVAL_BATCH = 32
#: evaluate: points per ``evaluate_many`` call (the 32-point batch the
#: sizing probe in the benchmark's design timed), batches scored in set-up
#: (they start the pool, calibrate its dispatch threshold and let the
#: workers finish lazy set-up) and batches measured per run.
BATCH_POINTS = 32
WARMUP_BATCHES = 3
MEASURED_BATCHES = 16
#: pipeline: the set-up (dataset and thresholds) is repeated this many
#: times per run and its median reported.
SETUP_REPEATS = 5
#: workers > 1: every CHECK_EVERY-th measured batch is re-scored by a fresh
#: in-process BatchEvaluator and must be ``==``.
CHECK_EVERY = 8


def derive_seeds(seed: int, variant: int) -> dict:
    """The generated inputs the program receives, from the workload seed
    and the run's input variant."""
    import numpy as np

    data, pipeline, stream = (
        int(s) % 2**31
        for s in np.random.SeedSequence([seed, variant]).generate_state(3)
    )
    return {"data": data, "pipeline": pipeline, "stream": stream}


def evaluation_errors(accuracy: float, latency_ms: float, energy_mj: float) -> list[str]:
    """Why an evaluation is invalid (empty when it is valid)."""
    errors = []
    if not all(math.isfinite(v) for v in (accuracy, latency_ms, energy_mj)):
        errors.append(f"non-finite evaluation {(accuracy, latency_ms, energy_mj)}")
    elif not 0.0 <= accuracy <= 1.0:
        errors.append(f"accuracy {accuracy} outside [0, 1]")
    elif latency_ms <= 0.0 or energy_mj <= 0.0:
        errors.append(f"non-positive latency/energy {(latency_ms, energy_mj)}")
    return errors


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def peak_rss_mb(worker_pids: list[int]) -> float:
    """This process's peak RSS plus the largest pool worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker = 0.0
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        worker = max(worker, int(line.split()[1]) / 1024.0)
        except OSError:
            pass
    return own + worker


def build_inputs(seeds: dict):
    """Set-up shared by every mode: the dataset and the Eq. 2 thresholds."""
    from dataclasses import replace

    from repro.experiments.common import demo_thresholds
    from repro.nn.data import SyntheticCifar
    from repro.scale import DEMO
    from repro.search.reward import BALANCED

    dataset = SyntheticCifar(
        image_size=IMAGE_SIZE,
        train_size=TRAIN_SIZE,
        val_size=VAL_SIZE,
        test_size=TEST_SIZE,
        seed=seeds["data"],
    )
    # The demo thresholds for the demo network shape on this image size.
    scale = replace(DEMO, image_size=IMAGE_SIZE)
    t_lat, t_eer = demo_thresholds(scale)
    return dataset, BALANCED.scaled(t_lat, t_eer)


def yoso_config(seeds: dict, workers: int = 1, store_path: str | None = None):
    from repro.search.yoso import YosoConfig

    return YosoConfig(
        num_cells=NUM_CELLS,
        stem_channels=STEM_CHANNELS,
        hypernet_epochs=HYPERNET_EPOCHS,
        hypernet_batch=HYPERNET_BATCH,
        predictor_samples=PREDICTOR_SAMPLES,
        search_iterations=SEARCH_ITERATIONS,
        topn=TOPN,
        rescore_epochs=RESCORE_EPOCHS,
        eval_batch=EVAL_BATCH,
        workers=workers,
        store_path=store_path,
        seed=seeds["pipeline"],
    )


def obs_count(name: str) -> int:
    """A counter of this process's ``repro.obs`` registry."""
    from repro.obs import get_registry

    return int(get_registry().snapshot().get("counters", {}).get(name, 0))


def run_pipeline(args, seeds: dict, record: dict) -> None:
    from repro.search.evaluator import BatchEvaluator
    from repro.search.reinforce import ReinforceSearch
    from repro.search.yoso import YosoSearch

    iter_s: list[float] = []
    batch_s: list[float] = []
    points = [0]
    errors: list[str] = record["errors"]
    step, evaluate_many = ReinforceSearch.step, BatchEvaluator.evaluate_many

    def timed_step(self):
        t0 = time.perf_counter()
        out = step(self)
        iter_s.append(time.perf_counter() - t0)
        return out

    def checked_evaluate_many(self, batch):
        t0 = time.perf_counter()
        out = evaluate_many(self, batch)
        batch_s.append(time.perf_counter() - t0)
        points[0] += len(batch)
        for e in out:
            errors.extend(evaluation_errors(e.accuracy, e.latency_ms, e.energy_mj))
        return out

    ReinforceSearch.step = timed_step
    BatchEvaluator.evaluate_many = checked_evaluate_many

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        dataset, spec = build_inputs(seeds)
        setup_s.append(time.perf_counter() - t0)
    if args.store_src:
        t0 = time.perf_counter()
        shutil.copyfile(args.store_src, args.store)
        setup_s = [s + time.perf_counter() - t0 for s in setup_s]
    record["setup_s"] = statistics.median(setup_s)

    search = YosoSearch(dataset, spec, yoso_config(seeds, store_path=args.store))
    t0 = time.perf_counter()
    result = search.run()
    record["codesign_s"] = time.perf_counter() - t0

    for sample in result.history.samples:
        errors.extend(
            evaluation_errors(sample.accuracy, sample.latency_ms, sample.energy_mj)
        )
    for cand in result.rescored:
        a = cand.accurate
        errors.extend(evaluation_errors(a.accuracy, a.latency_ms, a.energy_mj))
    if not math.isfinite(result.best.reward):
        errors.append(f"non-finite best reward {result.best.reward}")
    record.update(
        iter_ms=[s * 1e3 for s in iter_s],
        batch_ms=[s * 1e3 for s in batch_s],
        eval_points_per_s=points[0] / sum(batch_s),
        best_reward=result.best.reward,
        digest=digest_of(
            [
                list(result.best.sample.tokens),
                [[list(c.sample.tokens), repr(c.reward)] for c in result.rescored],
                [repr(s.reward) for s in result.history.samples],
            ]
        ),
        peak_rss_mb=peak_rss_mb([]),
        store={
            name: obs_count(f"store.{name}") for name in ("lookups", "hits", "appends")
        },
    )


def point_stream(seed: int, n: int) -> list:
    """``n`` co-design points with pairwise distinct genotypes."""
    import numpy as np
    from repro.accel.config import random_config
    from repro.nas.encoding import CoDesignPoint
    from repro.nas.space import DnnSpace

    rng = np.random.default_rng(seed)
    space = DnnSpace()
    seen: set = set()
    points = []
    while len(points) < n:
        genotype = space.sample(rng)
        key = (genotype.normal, genotype.reduce)
        if key not in seen:
            seen.add(key)
            points.append(CoDesignPoint(genotype, random_config(rng)))
    return points


def run_evaluate(args, seeds: dict, record: dict) -> None:
    from repro.parallel import create_evaluator
    from repro.search.evaluator import BatchEvaluator
    from repro.search.yoso import YosoSearch

    errors: list[str] = record["errors"]
    stream = point_stream(
        seeds["stream"], (WARMUP_BATCHES + MEASURED_BATCHES) * BATCH_POINTS
    )
    batches = [
        stream[i : i + BATCH_POINTS] for i in range(0, len(stream), BATCH_POINTS)
    ]
    warmup, measured = batches[:WARMUP_BATCHES], batches[WARMUP_BATCHES:]

    t_start = time.perf_counter()
    dataset, spec = build_inputs(seeds)
    fast = YosoSearch(dataset, spec, yoso_config(seeds)).build_fast_evaluator()
    evaluator = create_evaluator(fast, workers=args.workers)
    for batch in warmup:
        for e in evaluator.evaluate_many(batch):
            errors.extend(evaluation_errors(e.accuracy, e.latency_ms, e.energy_mj))
    record["setup_s"] = time.perf_counter() - t_start

    batch_s: list[float] = []
    results = []
    batches_before = obs_count("pool.batches")
    t0 = time.perf_counter()
    for batch in measured:
        t1 = time.perf_counter()
        out = evaluator.evaluate_many(batch)
        batch_s.append(time.perf_counter() - t1)
        results.append([(e.accuracy, e.latency_ms, e.energy_mj) for e in out])
    stream_s = time.perf_counter() - t0
    # Measured batches that went to the pool; the rest ran in-process.
    record["dispatched_batches"] = obs_count("pool.batches") - batches_before

    pool = getattr(evaluator, "pool", None)
    record["peak_rss_mb"] = peak_rss_mb(pool.worker_pids() if pool else [])
    record["dispatch_threshold"] = getattr(evaluator, "dispatch_threshold", 0)
    if hasattr(evaluator, "close"):
        evaluator.close()

    for out in results:
        for values in out:
            errors.extend(evaluation_errors(*values))
    if args.workers > 1:
        reference = BatchEvaluator(fast)
        for i in range(0, len(measured), CHECK_EVERY):
            expected = [
                (e.accuracy, e.latency_ms, e.energy_mj)
                for e in reference.evaluate_many(measured[i])
            ]
            if expected != results[i]:
                errors.append(f"batch {i}: workers={args.workers} != in-process")
    n_points = len(measured) * BATCH_POINTS
    record.update(
        codesign_s=stream_s,
        iter_ms=[s * 1e3 / BATCH_POINTS for s in batch_s],
        batch_ms=[s * 1e3 for s in batch_s],
        eval_points_per_s=n_points / stream_s,
        best_reward=max(spec.reward(*v) for out in results for v in out),
        digest=digest_of([[repr(x) for v in out for x in v] for out in results]),
    )


def import_program() -> None:
    """Import every program module a run uses, so that set-up time does
    not include interpreter start-up and imports."""
    import repro.experiments.common  # noqa: F401
    import repro.nn.data  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.search.yoso  # noqa: F401


def main() -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("pipeline", "evaluate"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--store", default=None, help="store path (pipeline)")
    parser.add_argument("--store-src", default=None, help="store to copy first")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    from repro.obs import get_registry, host_info

    from layers import LayerTracer

    record: dict = {
        "variant": args.variant,
        "errors": [],
        "host": host_info(required_cpus=max(1, args.workers)),
    }
    tracer = LayerTracer()
    if args.trace:
        tracer.install()
    seeds = derive_seeds(args.seed, args.variant)
    try:
        if args.mode == "pipeline":
            run_pipeline(args, seeds, record)
        else:
            run_evaluate(args, seeds, record)
    except Exception:
        record["errors"].append(traceback.format_exc())
        print(json.dumps(record))
        return 1
    if args.trace:
        record["layers"] = tracer.metrics(
            time.perf_counter() - t_start,
            get_registry().snapshot(),
            record.get("dispatch_threshold", 0),
        )
    record["errors"] = record["errors"][:5]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
