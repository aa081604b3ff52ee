"""Persistent spawn-safe worker pools built around one replicated payload.

:class:`WorkerPool` is the generic engine: each worker process receives
ONE pickled state object at startup, keeps it alive for the life of the
pool, and runs whatever module-level task function the parent dispatches
against that state.  Two task types build on it:

* :class:`EvaluatorPool` (here) replicates a stripped
  :class:`~repro.search.evaluator.FastEvaluator` (HyperNet weights, GP
  predictors and the validation subset together) for sharded Step-2
  candidate scoring — per-call traffic is only the cache-missing
  genotypes, never the weights.
* :class:`~repro.parallel.training.TrainingPool` replicates an
  :class:`~repro.search.evaluator.AccurateEvaluator` (synthetic dataset +
  training recipe) for sharded Step-3 stand-alone training.

Before shipping, :func:`replication_payload` strips the replica's
transient runtime state: layer backward caches (``_cache`` / ``_mask``
im2col columns and argmax masks, float64 and an order of magnitude larger
than the weights they belong to) and the mixed-cell forward scratch
(``_active`` / ``_states`` / ``_pre``).  All of it is rebuilt on the next
forward, so stripping changes payload size only — at smoke scale it cuts
the payload from ~24 MB to ~2 MB.

Crash handling: a worker dying mid-batch breaks the whole
:class:`~concurrent.futures.ProcessPoolExecutor`.  :meth:`EvaluatorPool.
run_shards` catches that, tears the executor down, spawns a fresh one from
the retained payload and resubmits the *same* shards — the batch is never
lost.  ``max_restarts`` bounds retries so a deterministically-crashing
task cannot loop forever.

The pool uses the ``spawn`` start method by default: workers re-import
``repro`` instead of inheriting arbitrary parent state, which is safe
under threads (the micro-batch scheduler) and on every platform.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..nn.module import Module
from ..obs.registry import get_registry
from ..obs.tracing import NULL_SPAN, current_context, get_tracer, worker_span
from ..predict.features import genotype_features
from ..resilience import faults
from ..resilience.faults import InjectedFault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..nas.genotype import Genotype
    from ..search.evaluator import FastEvaluator

__all__ = [
    "WorkItem",
    "ShardResult",
    "WorkerPool",
    "EvaluatorPool",
    "compute_work_items",
    "replication_payload",
    "worker_state",
]

# Module-level registry handles (NEVER instance attributes: the pool's
# payload objects get pickled to workers, and metric objects hold locks).
_REGISTRY = get_registry()
_M_BATCHES = _REGISTRY.counter("pool.batches")
_M_ITEMS = _REGISTRY.counter("pool.items")
_M_RESTARTS = _REGISTRY.counter("pool.restarts")
_M_RESUBMITTED = _REGISTRY.counter("pool.resubmitted_shards")

#: Transient per-forward attributes cleared from the shipped replica.
_RUNTIME_ATTRS = (
    "_cache",
    "_mask",
    "_active",
    "_states",
    "_pre",
    "_spec",
    "_active_classifier",
)


@dataclass(frozen=True)
class WorkItem:
    """One unique genotype's outstanding work (what the parent LRUs miss)."""

    genotype: "Genotype"
    need_accuracy: bool
    need_features: bool


@dataclass(frozen=True)
class ShardResult:
    """Per-item results of one shard, aligned with the shard's items."""

    accuracies: list[float | None]
    features: list[np.ndarray | None]


def compute_work_items(fast: "FastEvaluator", items: Sequence[WorkItem]) -> ShardResult:
    """Resolve a shard of work items against a fast evaluator.

    Shared by the worker processes and the in-process fallback, so both
    paths run literally the same code: accuracies for every item that
    needs one come from a single batched
    :meth:`~repro.search.evaluator.FastEvaluator.evaluate_accuracies`
    call, feature prefixes from :func:`~repro.predict.features.
    genotype_features`.
    """
    acc_indices = [i for i, item in enumerate(items) if item.need_accuracy]
    accuracies: list[float | None] = [None] * len(items)
    if acc_indices:
        measured = fast.evaluate_accuracies(
            [items[i].genotype for i in acc_indices]
        )
        for i, accuracy in zip(acc_indices, measured):
            accuracies[i] = accuracy
    features: list[np.ndarray | None] = [None] * len(items)
    for i, item in enumerate(items):
        if item.need_features:
            features[i] = genotype_features(
                item.genotype,
                num_cells=fast.num_cells,
                stem_channels=fast.stem_channels,
                image_size=fast.image_size,
                num_classes=fast.num_classes,
            )
    return ShardResult(accuracies=accuracies, features=features)


# ---------------------------------------------------------------------------
# Replication payload
# ---------------------------------------------------------------------------


def _iter_modules(root: Module):
    seen: set[int] = set()
    stack: list[object] = [root]
    while stack:
        value = stack.pop()
        if isinstance(value, Module):
            if id(value) in seen:
                continue
            seen.add(id(value))
            yield value
            stack.extend(value.__dict__.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())


def replication_payload(fast: "FastEvaluator") -> bytes:
    """Serialise a fast evaluator once for worker replication.

    The parent's transient scratch is detached while pickling and
    restored afterwards (cheaper than pickling the scratch — a trained
    demo-scale HyperNet drags tens of seconds of float64 im2col caches
    through pickle otherwise — and the parent is left exactly as found).
    The replica ships with empty scratch state but otherwise identical to
    the parent — weights, GP predictors, validation subset AND train/eval
    mode (HyperNet accuracy evaluation deliberately uses training-mode
    batch-norm statistics, so flipping the replica to eval mode would
    change its accuracies).  Not safe concurrently with a forward pass on
    the same evaluator; pools build the payload up front in ``__init__``.
    """
    saved: list[tuple[Module, str, object]] = []
    for module in _iter_modules(fast.hypernet):
        for attr in _RUNTIME_ATTRS:
            value = module.__dict__.get(attr)
            if value is not None:
                saved.append((module, attr, value))
                setattr(module, attr, None)
    try:
        return pickle.dumps(fast)
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: The one deserialised payload object each worker process holds (a
#: FastEvaluator replica for evaluation pools, an AccurateEvaluator for
#: training pools).
_WORKER_STATE: object | None = None


def _init_worker(payload: bytes) -> None:
    """Process initializer: deserialise the replica once per worker."""
    global _WORKER_STATE
    _WORKER_STATE = pickle.loads(payload)


def worker_state() -> object:
    """The worker process's replica (task functions dispatch against it)."""
    assert _WORKER_STATE is not None, "worker used before initialisation"
    return _WORKER_STATE


def _run_shard(items: list[WorkItem]) -> ShardResult:
    return compute_work_items(worker_state(), items)


def _faulted_task(fn, action: str, delay_s: float, shard: list):
    """Worker-side execution of a parent-decided ``pool.worker`` fault.

    The *decision* happens in the parent (:func:`repro.resilience.faults.
    decide`) at submission time — deciding worker-side would reset the
    plan's hit counts in every respawned process, so a count-bounded
    ``kill`` would re-fire forever.  ``kill`` dies with the same exit
    code a hard crash test uses; ``delay`` sleeps then runs the task;
    anything else raises :class:`InjectedFault` (a genuine task error —
    the pool propagates it, it does not trigger a respawn).
    """
    if action == "kill":
        os._exit(17)
    if action == "delay":
        time.sleep(delay_s)
        return fn(shard)
    raise InjectedFault(f"injected {action} at pool.worker")


def _run_traced(fn, shard: list, trace_id: str, parent_id: str | None):
    """Run a shard task with a worker-side span; returns ``(result, spans)``.

    Worker processes hold a fresh (disabled) global tracer, so the span
    is built as a plain dict (:func:`repro.obs.tracing.worker_span`) and
    shipped back with the result — the parent merges it into its own
    tracer on harvest (the "ids ship with tasks, spans merge
    parent-side" model).  Only used when the parent's tracer is enabled,
    so the untraced dispatch path is unchanged bytes.
    """
    result, span = worker_span(
        "pool.shard", trace_id, parent_id,
        functools.partial(fn, shard),
        items=len(shard), pid=os.getpid(),
    )
    return result, [span]


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class WorkerPool:
    """A persistent pool of processes, each holding one payload replica.

    Workers spawn lazily on the first :meth:`run_tasks` call and persist
    across calls; the payload is built once by the subclass and retained
    for restarts.  ``run_tasks`` dispatches any module-level task function
    against the worker-side replica (see :func:`worker_state`), so several
    task types can share one crash-recovery engine.
    """

    def __init__(
        self,
        payload: bytes,
        workers: int,
        start_method: str = "spawn",
        max_restarts: int = 3,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.workers = workers
        self.max_restarts = max_restarts
        self._payload = payload
        self._mp_context = get_context(start_method)
        self._executor: ProcessPoolExecutor | None = None
        #: Lifetime counters (restarts survive pool rebuilds).
        self.restarts = 0
        self.batches = 0
        self.items = 0
        #: Shards resubmitted to a respawned pool after a worker crash
        #: (shards whose result survived the crash are not re-run, so
        #: this counts genuinely repeated work).
        self.resubmitted_shards = 0

    @property
    def payload_bytes(self) -> int:
        """Size of the per-worker replication payload."""
        return len(self._payload)

    @property
    def live(self) -> bool:
        """Whether an executor is currently spawned (False before the
        first dispatch and after :meth:`close`)."""
        return self._executor is not None

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._mp_context,
                initializer=_init_worker,
                initargs=(self._payload,),
            )
        return self._executor

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (empty before first dispatch)."""
        if self._executor is None:
            return []
        processes = getattr(self._executor, "_processes", None) or {}
        return [p.pid for p in processes.values() if p.pid is not None]

    def run_tasks(self, fn, shards: Sequence[list]) -> list:
        """Run ``fn(shard)`` for every shard across the pool, restarting on
        worker death.

        Results come back in shard order (order-preserving merge is then
        plain concatenation).  If a worker crashes, the broken executor is
        torn down, a fresh pool is spawned from the retained payload and
        the batch is never lost — shards whose result already came back
        keep it, and ONLY the unfinished shards are resubmitted (a crash
        during Step-3 training must not retrain every candidate).
        """
        shard_lists = [list(shard) for shard in shards]
        pending_marker = object()
        results: list = [pending_marker] * len(shard_lists)
        attempts = 0
        tracer = get_tracer()
        # Traced dispatch: ship the ids with each task and harvest the
        # worker-built spans with the results.  The ambient context is
        # read once here (run_tasks is called under the evaluator's span
        # in the same thread); untraced dispatch submits fn directly —
        # the default path is byte-for-byte the pre-instrumentation one.
        traced = tracer.enabled and current_context() is not None
        if traced:
            dispatch_span = tracer.span(
                "pool.dispatch", shards=len(shard_lists), workers=self.workers
            )
        else:
            dispatch_span = NULL_SPAN
        with dispatch_span:
            while True:
                pending = [
                    i for i, r in enumerate(results) if r is pending_marker
                ]
                if not pending:
                    break
                executor = self._ensure_executor()
                crashed = False
                try:
                    # submit() itself raises when the pool noticed a death
                    # between batches, so it sits inside the retry scope too.
                    futures = []
                    for i in pending:
                        task = fn
                        rule = faults.decide("pool.worker")
                        if rule is not None:
                            # Parent-side decision, worker-side execution:
                            # the hit is consumed exactly once here, so a
                            # respawned pool resubmitting this shard
                            # re-consults the plan and a count-bounded
                            # kill fires once, not on every respawn.
                            task = functools.partial(
                                _faulted_task, fn, rule.action, rule.delay_s
                            )
                        if traced:
                            futures.append(
                                (
                                    i,
                                    executor.submit(
                                        _run_traced,
                                        task,
                                        shard_lists[i],
                                        dispatch_span.trace_id,
                                        dispatch_span.span_id,
                                    ),
                                )
                            )
                        else:
                            futures.append(
                                (i, executor.submit(task, shard_lists[i]))
                            )
                except BrokenProcessPool:
                    futures = []
                    crashed = True
                # Harvest every future individually: results that completed
                # before (or despite) a crash are kept, so the retry only
                # resubmits shards that genuinely never finished.  A genuine
                # task error (the fn raised in a healthy worker) must not
                # short-circuit the harvest either — propagating it with
                # later shards' futures still running would leave the
                # executor busy with abandoned work and the pool in an
                # undefined state for the next batch.
                task_error: Exception | None = None
                for i, future in futures:
                    try:
                        results[i] = future.result()
                    except BrokenProcessPool:
                        crashed = True
                    except Exception as exc:
                        # Genuine task errors only — a KeyboardInterrupt /
                        # SystemExit delivered mid-harvest must abort NOW,
                        # not after blocking on every remaining shard.
                        if task_error is None:
                            task_error = exc
                if task_error is not None:
                    # Every future has been waited on, so no shard is still
                    # in flight and the pool is immediately reusable.  (If a
                    # crash happened too, the broken executor is torn down so
                    # the next dispatch respawns cleanly.)
                    if crashed:
                        self._teardown(broken=True)
                    raise task_error
                if crashed:
                    self._teardown(broken=True)
                    attempts += 1
                    self.restarts += 1
                    _M_RESTARTS.inc()
                    if attempts > self.max_restarts:
                        raise BrokenProcessPool(
                            f"worker pool crashed {attempts} times; giving up"
                        )
                    resubmitted = sum(
                        1 for r in results if r is pending_marker
                    )
                    self.resubmitted_shards += resubmitted
                    _M_RESUBMITTED.inc(resubmitted)
        if traced:
            # Unwrap the (result, spans) pairs and merge the worker-side
            # spans into the parent's tracer.
            harvested: list[dict] = []
            for i, pair in enumerate(results):
                results[i], shard_spans = pair
                harvested.extend(shard_spans)
            tracer.ingest(harvested)
        self.batches += 1
        self.items += sum(len(shard) for shard in shard_lists)
        _M_BATCHES.inc()
        _M_ITEMS.inc(sum(len(shard) for shard in shard_lists))
        return results

    # ------------------------------------------------------------------
    def _teardown(self, broken: bool = False) -> None:
        if self._executor is not None:
            # shutdown() drops the executor's reference to its workers.
            processes = list((self._executor._processes or {}).values())
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            if broken:
                # A worker whose spawn was still inside submit() when a
                # sibling died joins the executor after CPython's own
                # terminate pass: it then waits for work forever, and the
                # executor's manager thread -- and so interpreter exit --
                # waits on it forever.  Every submit of the batch has
                # returned by now, so the list holds every worker.
                for process in processes:
                    process.terminate()

    def close(self) -> None:
        """Shut the workers down (idempotent; the payload is retained,
        so a later dispatch transparently respawns the pool)."""
        self._teardown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EvaluatorPool(WorkerPool):
    """A persistent pool of processes, each holding one evaluator replica.

    The replication payload (stripped fast evaluator) is built once in
    ``__init__`` and retained for restarts.
    """

    def __init__(
        self,
        fast: "FastEvaluator",
        workers: int,
        start_method: str = "spawn",
        max_restarts: int = 3,
    ) -> None:
        super().__init__(
            replication_payload(fast),
            workers,
            start_method=start_method,
            max_restarts=max_restarts,
        )

    def run_shards(self, shards: Sequence[list[WorkItem]]) -> list[ShardResult]:
        """Evaluate work-item shards across the pool (crash-safe)."""
        return self.run_tasks(_run_shard, shards)
