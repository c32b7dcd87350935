"""Noisy, temporally filtered estimation of the logical state.

Each tick the pipeline takes the ground-truth logical state, flips every
atom independently with its predicate's flip probability (one
``rng.random(n)`` draw per tick, packed into an ``int`` flip mask), pushes
the noisy mask into a sliding window, and returns the per-atom majority vote
over the window, computed bit-parallel on the window's int masks.  With
window size 3 and flip probability p the per-atom error rate drops from p to
p^2 (3 - 2p).  Flip probabilities of zero make the pipeline an exact oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .logic import LogicalState, Vocabulary

DEFAULT_WINDOW = 3


class EmptyWindowError(RuntimeError):
    """The majority filter needs at least one buffered estimate."""


@dataclass(frozen=True)
class NoiseModel:
    """Per-predicate Bernoulli flip probabilities, all below 0.5.

    At or above 0.5 a majority filter amplifies rather than suppresses
    noise, so such models are rejected outright.
    """

    default_flip: float = 0.0
    per_predicate_flip: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, p in [("default_flip", self.default_flip)] + list(
            self.per_predicate_flip.items()
        ):
            if not 0.0 <= p < 0.5:
                raise ValueError(
                    f"flip probability for {name} must be in [0, 0.5), got {p}"
                )

    def flip_vector(self, vocab: Vocabulary) -> np.ndarray:
        return np.array(
            [
                self.per_predicate_flip.get(a.predicate.name, self.default_flip)
                for a in vocab.atoms
            ],
            dtype=float,
        )

    @property
    def is_oracle(self) -> bool:
        return self.default_flip == 0.0 and not any(self.per_predicate_flip.values())


class EstimatorWindow:
    """Last-N buffer of instantaneous estimates (int masks), oldest evicted
    first."""

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        if capacity < 1:
            raise ValueError("window capacity must be at least 1")
        self._buffer: deque[int] = deque(maxlen=capacity)

    def push(self, mask: int) -> None:
        self._buffer.append(mask)

    def majority(self) -> int:
        """Mask of the atoms true in strictly more than half of the buffered
        estimates; ties resolve to false.

        ``at_least[k]`` is the mask of atoms true in at least ``k`` of the
        estimates seen so far, updated for every estimate from the highest
        ``k`` down, so one pass over the window needs ``len // 2 + 1`` ANDs
        and ORs per estimate whatever the window size.
        """
        if not self._buffer:
            raise EmptyWindowError("no estimates buffered yet")
        need = len(self._buffer) // 2 + 1
        at_least = [-1] + [0] * need
        for mask in self._buffer:
            for k in range(need, 0, -1):
                at_least[k] |= at_least[k - 1] & mask
        return at_least[need]


class PerceptionPipeline:
    """observe -> window -> majority filter, one instance per trial."""

    def __init__(
        self,
        vocab: Vocabulary,
        noise: NoiseModel | None = None,
        window: int = DEFAULT_WINDOW,
        rng: np.random.Generator | None = None,
    ):
        self.vocab = vocab
        self.noise = noise or NoiseModel()
        self.window = EstimatorWindow(window)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._oracle = self.noise.is_oracle
        self._flip_probs = None if self._oracle else self.noise.flip_vector(vocab)

    def estimate(self, truth: LogicalState) -> LogicalState:
        """Push a noisy observation of ``truth`` and return the filtered
        estimate of the current logical state.

        With an all-zero noise model the pipeline is a true oracle: the
        estimate equals the ground truth at every tick, with no filter lag
        and no randomness consumed.
        """
        if self._oracle:
            return truth
        flips = self.rng.random(len(self.vocab)) < self._flip_probs
        packed = np.packbits(flips, bitorder="little").tobytes()
        self.window.push(truth.mask ^ int.from_bytes(packed, "little"))
        return LogicalState(self.vocab, self.window.majority())


def majority_error_rate(p: float, window: int = DEFAULT_WINDOW) -> float:
    """Probability that the majority over ``window`` i.i.d. flips is wrong.

    For window 3 this is p^2 (3 - 2p).  Ties (even windows) count as
    errors for a true atom, matching the ties-to-false filter on the
    majority boundary; the closed form here assumes an odd window.
    """
    need = window // 2 + 1
    return sum(
        math.comb(window, k) * p**k * (1 - p) ** (window - k)
        for k in range(need, window + 1)
    )
