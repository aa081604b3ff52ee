"""REINFORCE training of the controller (Eq. 3-4, Sec. IV-C).

The policy gradient uses a moving-average baseline to reduce variance
*"while keeping the bias unchanged"*, an entropy bonus of 1e-4 added to the
reward to sustain exploration, and Adam with learning rate 0.0035.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..nas.encoding import CoDesignPoint, decode
from ..nn.optim import Adam, clip_grad_norm
from .controller import Controller, SampledSequence
from .evaluator import Evaluation
from .reward import RewardSpec

__all__ = ["SearchSample", "SearchHistory", "ReinforceSearch"]


@dataclass(frozen=True)
class SearchSample:
    """One evaluated search iteration."""

    iteration: int
    tokens: tuple[int, ...]
    reward: float
    accuracy: float
    latency_ms: float
    energy_mj: float

    def point(self) -> CoDesignPoint:
        return decode(list(self.tokens), name=f"iter{self.iteration}")


@dataclass
class SearchHistory:
    """Full search trace plus convenience accessors."""

    samples: list[SearchSample] = field(default_factory=list)

    def append(self, sample: SearchSample) -> None:
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def rewards(self) -> np.ndarray:
        return np.asarray([s.reward for s in self.samples])

    def best(self) -> SearchSample:
        if not self.samples:
            raise ValueError("empty history")
        return max(self.samples, key=lambda s: s.reward)

    def top(self, n: int) -> list[SearchSample]:
        """Top-n by reward with distinct token sequences."""
        ranked = sorted(self.samples, key=lambda s: s.reward, reverse=True)
        seen: set[tuple[int, ...]] = set()
        out: list[SearchSample] = []
        for s in ranked:
            if s.tokens in seen:
                continue
            seen.add(s.tokens)
            out.append(s)
            if len(out) == n:
                break
        return out

    def every(self, k: int) -> list[SearchSample]:
        """Every k-th sample (how the paper subsamples its Fig. 6 plots)."""
        return self.samples[:: max(k, 1)]

    def running_best_rewards(self) -> np.ndarray:
        return np.maximum.accumulate(self.rewards())


class ReinforceSearch:
    """The RL search loop of YOSO Step 2.

    ``batch_episodes`` rollouts are sampled per policy update; when an
    ``evaluate_batch`` callable is given (e.g.
    :meth:`repro.search.evaluator.BatchEvaluator.evaluate_many`) all
    rollouts of a step are scored in one batched call instead of one
    evaluator round-trip per rollout.  Candidate evaluation never touches
    the controller or the RNG, so batching changes wall-clock only — the
    sampled tokens, baseline updates and gradients are identical.
    """

    def __init__(
        self,
        controller: Controller,
        evaluate: Callable[[CoDesignPoint], Evaluation],
        reward_spec: RewardSpec,
        lr: float = 0.0035,
        baseline_decay: float = 0.95,
        entropy_weight: float = 1e-4,
        batch_episodes: int = 1,
        grad_clip: float = 10.0,
        seed: int = 0,
        evaluate_batch: Callable[[list[CoDesignPoint]], list[Evaluation]] | None = None,
    ) -> None:
        self.controller = controller
        self.evaluate = evaluate
        self.evaluate_batch = evaluate_batch
        self.reward_spec = reward_spec
        self.optimiser = Adam(controller.parameters(), lr=lr)
        self.baseline_decay = baseline_decay
        self.entropy_weight = entropy_weight
        self.batch_episodes = max(1, batch_episodes)
        self.grad_clip = grad_clip
        self.rng = np.random.default_rng(seed)
        self.baseline: float | None = None
        self.history = SearchHistory()

    # ------------------------------------------------------------------
    def _evaluate_points(self, points: list[CoDesignPoint]) -> list[Evaluation]:
        if self.evaluate_batch is not None:
            return list(self.evaluate_batch(points))
        return [self.evaluate(point) for point in points]

    def step(self) -> SearchSample:
        """Sample, evaluate and learn from ``batch_episodes`` episodes."""
        self.optimiser.zero_grad()
        base = len(self.history)
        episodes = [
            self.controller.sample(self.rng) for _ in range(self.batch_episodes)
        ]
        points = [
            decode(episode.tokens, name=f"iter{base + j}")
            for j, episode in enumerate(episodes)
        ]
        evaluations = self._evaluate_points(points)
        last: SearchSample | None = None
        for episode, evaluation in zip(episodes, evaluations):
            reward = self.reward_spec.reward(
                evaluation.accuracy, evaluation.latency_ms, evaluation.energy_mj
            )
            # Entropy bonus added to the reward (Sec. IV-C).
            shaped_reward = reward + self.entropy_weight * episode.entropy
            if self.baseline is None:
                self.baseline = shaped_reward
            advantage = shaped_reward - self.baseline
            self.baseline = (
                self.baseline_decay * self.baseline
                + (1.0 - self.baseline_decay) * shaped_reward
            )
            self.controller.accumulate_policy_gradient(episode, advantage)
            last = SearchSample(
                iteration=len(self.history),
                tokens=tuple(episode.tokens),
                reward=reward,
                accuracy=evaluation.accuracy,
                latency_ms=evaluation.latency_ms,
                energy_mj=evaluation.energy_mj,
            )
            self.history.append(last)
        clip_grad_norm(self.optimiser.parameters, self.grad_clip)
        self.optimiser.step()
        assert last is not None
        return last

    def run(self, iterations: int) -> SearchHistory:
        """Run the search for ``iterations`` evaluated candidates."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        while len(self.history) < iterations:
            self.step()
        return self.history
