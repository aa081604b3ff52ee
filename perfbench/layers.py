"""Per-layer self time and call counts, from wrappers the benchmark installs.

The program has no spans of its own on the pipeline path yet, so the
traced run times calls into each layer's public functions from here: every
wrapped call records its inclusive time, and its *self* time is that
minus the time spent in nested wrapped calls (of any layer).  A layer's
self time is the sum over its wrapped functions, so the seven layers and
the unwrapped remainder partition the traced process's wall clock.

Counts of work come from the ``repro.obs`` registry snapshot where the
program already keeps them (evaluator, training, store, pool); the rest
(epochs, genotypes, simulated networks, kernel calls) are wrapper counts.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = ("search", "nas", "nn", "predict", "accel", "store", "parallel")

_NN_KERNELS = {
    "conv_train": (
        "conv2d_forward",
        "conv2d_backward",
        "conv2d_forward_fast",
        "conv2d_backward_fast",
    ),
    "conv_infer": ("conv2d_infer",),
    "depthwise_train": (
        "depthwise_conv2d_forward",
        "depthwise_conv2d_backward",
        "depthwise_conv2d_forward_fast",
        "depthwise_conv2d_backward_fast",
    ),
    "depthwise_infer": ("depthwise_conv2d_infer",),
    "pool_train": (
        "maxpool2d_forward",
        "maxpool2d_backward",
        "avgpool2d_forward",
        "avgpool2d_backward",
        "maxpool2d_forward_fast",
        "maxpool2d_backward_fast",
        "avgpool2d_forward_fast",
        "avgpool2d_backward_fast",
    ),
    "pool_infer": ("maxpool2d_infer", "avgpool2d_infer"),
    "bn_train": (
        "batchnorm_forward",
        "batchnorm_backward",
        "batchnorm_forward_fast",
        "batchnorm_backward_fast",
    ),
    "bn_infer": ("batchnorm_infer",),
    "im2col": ("im2col",),
    "col2im": ("col2im",),
}


def _first_len(args, kwargs) -> int:
    return len(args[1])


def _rows(args, kwargs) -> int:
    return len(args[1]) if getattr(args[1], "ndim", 2) > 1 else 1


def _configs(args, kwargs) -> int:
    return len(args[2] if len(args) > 2 else kwargs["configs"])


# (layer, timer key, module, owner inside the module or None, attribute,
#  items counter).  A module-level function is patched on every module that
# imported it by name, because that is where its callers look it up.
_WRAPS = [
    ("search", "step1", "repro.search.yoso", "YosoSearch", "build_fast_evaluator", None),
    ("search", "step2", "repro.search.yoso", "YosoSearch", "run_search", None),
    ("search", "step3", "repro.search.yoso", "YosoSearch", "finalize", None),
    ("search", "controller_sample", "repro.search.controller", "Controller", "sample", None),
    ("search", "step", "repro.search.reinforce", "ReinforceSearch", "step", None),
    ("search", "evaluate_many", "repro.search.evaluator", "BatchEvaluator", "evaluate_many", None),
    ("search", "train_accuracy", "repro.search.evaluator", "AccurateEvaluator", "train_accuracy", None),
    ("nas", "hypernet_train_epoch", "repro.nas.hypernet", "HyperNetTrainer", "train_epoch", None),
    ("nas", "hypernet_evaluate_many", "repro.nas.hypernet", "HyperNet", "evaluate_many", _first_len),
    ("nas", "train_network", "repro.nas.train", None, "train_network", None),
    ("nas", "train_network", "repro.search.evaluator", None, "train_network", None),
    ("predict", "collect_samples", "repro.predict.dataset", None, "collect_samples", None),
    ("predict", "collect_samples", "repro.search.yoso", None, "collect_samples", None),
    ("predict", "gp_fit", "repro.predict.gp", "GaussianProcessRegressor", "fit", None),
    ("predict", "gp_predict", "repro.predict.gp", "GaussianProcessRegressor", "predict", _rows),
    ("predict", "gp_predict", "repro.predict.gp", "GaussianProcessRegressor", "predict_batch", _rows),
    ("accel", "simulate", "repro.accel.simulator", "SystolicArraySimulator", "simulate_genotypes", _first_len),
    ("accel", "simulate", "repro.accel.simulator", "SystolicArraySimulator", "simulate_many", _configs),
    ("accel", "simulate", "repro.accel.simulator", "SystolicArraySimulator", "simulate_network", lambda a, k: 1),
    ("store", "store_get", "repro.store.result_store", "ResultStore", "get", None),
    ("store", "store_append", "repro.store.result_store", "ResultStore", "append", None),
    ("parallel", "pool_init", "repro.parallel.pool", "EvaluatorPool", "__init__", None),
    ("parallel", "run_shards", "repro.parallel.pool", "EvaluatorPool", "run_shards", None),
] + [
    ("nn", family, "repro.nn.functional", None, name, None)
    for family, names in _NN_KERNELS.items()
    for name in names
]


class LayerTracer:
    """Installs timing wrappers and turns their totals into metrics."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        #: Time of run_shards calls that found the pool not yet spawned.
        self.cold_dispatch_s = 0.0

    def install(self) -> None:
        for layer, key, module_name, owner_name, attr, items in _WRAPS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            setattr(owner, attr, self._wrap(getattr(owner, attr), layer, key, items))

    def _wrap(self, fn, layer: str, key: str, items):
        stack, depth = self._stack, self._depth
        cold_probe = key == "run_shards"

        def wrapper(*args, **kwargs):
            # Items are counted at the outermost call of a key only, so a
            # wrapped function calling another one of the same key (GP
            # predict_batch -> predict) counts its rows once.
            if items is not None and depth[key] == 0:
                self.items[key] += items(args, kwargs)
            cold = cold_probe and not args[0].live
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                depth[key] -= 1
                stack.pop()
                own = elapsed - frame[0]
                self.calls[key] += 1
                self.self_s[key] += own
                self.total_s[key] += elapsed
                self.layer_self_s[layer] += own
                if stack:
                    stack[-1][0] += elapsed
                if cold:
                    self.cold_dispatch_s += elapsed

        return wrapper

    def metrics(self, wall_s: float, registry: dict, dispatch_threshold: int) -> dict:
        """Every per-layer metric, given the traced process's wall clock,
        a ``repro.obs`` registry snapshot and the final dispatch threshold."""
        counters = registry.get("counters", {})

        def count(name: str) -> int:
            return int(counters.get(name, 0))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        lookups = count("evaluator.lookups")
        store_lookups = count("store.lookups")
        m = {
            "search.step1_s": self.total_s["step1"],
            "search.step2_s": self.total_s["step2"],
            "search.step3_s": self.total_s["step3"],
            "search.controller_sample_s": self.self_s["controller_sample"],
            "search.step_self_s": self.self_s["step"],
            "search.evaluate_many_s": self.self_s["evaluate_many"],
            "search.evaluate_points": lookups,
            "search.lru_hit_rate": ratio(count("evaluator.hits"), lookups),
            "search.train_accuracy_s": self.self_s["train_accuracy"],
            "search.trainings": count("training.runs"),
            "nas.hypernet_train_epoch_s": self.self_s["hypernet_train_epoch"],
            "nas.hypernet_epochs": self.calls["hypernet_train_epoch"],
            "nas.hypernet_evaluate_many_s": self.self_s["hypernet_evaluate_many"],
            "nas.genotypes_evaluated": self.items["hypernet_evaluate_many"],
            "nas.genotypes_per_call": ratio(
                self.items["hypernet_evaluate_many"],
                self.calls["hypernet_evaluate_many"],
            ),
            "nas.train_network_s": self.self_s["train_network"],
            "predict.collect_samples_s": self.self_s["collect_samples"],
            "predict.gp_fit_s": self.self_s["gp_fit"],
            "predict.gp_predict_s": self.self_s["gp_predict"],
            "predict.gp_points": self.items["gp_predict"],
            "accel.simulate_genotypes_s": self.self_s["simulate"],
            "accel.networks_simulated": self.items["simulate"],
            "store.get_s": self.self_s["store_get"],
            "store.append_s": self.self_s["store_append"],
            "store.lookups": store_lookups,
            "store.hits": count("store.hits"),
            "store.appends": count("store.appends"),
            "store.hit_rate": ratio(count("store.hits"), store_lookups),
            "parallel.pool_start_s": self.total_s["pool_init"] + self.cold_dispatch_s,
            "parallel.run_shards_s": self.self_s["run_shards"],
            "parallel.batches": count("pool.batches"),
            "parallel.items": count("pool.items"),
            "parallel.items_shipped_share": ratio(
                count("pool.items"), count("evaluator.misses")
            ),
            "parallel.restarts": count("pool.restarts"),
            "parallel.resubmitted_shards": count("pool.resubmitted_shards"),
            "parallel.dispatch_threshold": dispatch_threshold,
        }
        for family in _NN_KERNELS:
            m[f"nn.{family}_s"] = self.self_s[family]
            if family not in ("im2col", "col2im"):
                m[f"nn.{family}_calls"] = self.calls[family]
        covered = 0.0
        for layer in LAYERS:
            m[f"share.{layer}"] = ratio(self.layer_self_s[layer], wall_s)
            covered += self.layer_self_s[layer]
        m["share.other"] = ratio(max(wall_s - covered, 0.0), wall_s)
        return m
