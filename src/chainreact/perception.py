"""Noisy, temporally filtered estimation of the logical state.

Each tick the pipeline flips every atom of the int truth mask with its
predicate's flip probability, appends the noisy mask to its window of the
last ``window`` masks, and returns their per-atom :func:`majority`.  With
window 3 and flip probability p the per-atom error rate drops from p to
p^2 (3 - 2p).  Flip probabilities of zero make the pipeline an exact oracle.

The flips are drawn a block of ticks at a time: one ``rng.random((rows,
n))`` draw, one compare and one ``packbits`` give a single int holding
``rows`` flip masks of ``n`` bits, and each tick shifts its mask off the
bottom.  ``Generator.random`` yields the same doubles in the same order
whether asked for ``rows * n`` at once or ``n`` at a time, so the estimates
equal those of one ``rng.random(n)`` draw per tick.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Mapping

import numpy as np

from .logic import Vocabulary

DEFAULT_WINDOW = 3
BLOCK_TICKS = 64  # flip masks per draw after the first block


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
        """Each atom's flip probability in id order, read-only.  The array of
        the last ``vocab`` asked for is kept, so one scenario's trials share it."""
        last = self.__dict__.get("_flips")
        if last is None or last[0] is not vocab:
            get = self.per_predicate_flip.get
            flips = np.array([get(name, self.default_flip) for name, _ in vocab.bits], float)
            flips.flags.writeable = False
            last = self.__dict__["_flips"] = (vocab, flips)
        return last[1]

    @property
    def is_oracle(self) -> bool:
        return self.default_flip == 0.0 and not any(self.per_predicate_flip.values())


def majority(masks: Collection[int]) -> int:
    """Mask of the atoms true in strictly more than half of ``masks``; ties,
    and no masks at all, resolve to false.

    ``at_least[k]`` is the mask of atoms true in at least ``k`` of the masks
    seen so far, updated for every mask from the highest ``k`` down, so one
    pass needs ``len // 2 + 1`` ANDs and ORs per mask whatever the window
    size.  Exactly three masks, the shipped window once warm, take the
    closed form.
    """
    if len(masks) == 3:
        a, b, c = masks
        return a & b | c & (a | b)
    need = len(masks) // 2 + 1
    at_least = [-1] + [0] * need
    for mask in masks:
        for k in range(need, 0, -1):
            at_least[k] |= at_least[k - 1] & mask
    return at_least[need]


class PerceptionPipeline:
    """observe -> window -> majority filter, one instance per trial.

    :meth:`warm_up` fills the window on the initial world with the first
    flip block, ``min(window, BLOCK_TICKS)`` ticks; later blocks hold
    ``BLOCK_TICKS``.  The pipeline owns ``rng``: it draws flips up to a block
    ahead of the estimates it has returned, so a caller that also draws from
    the same Generator would see a different interleaving than with one draw
    per tick; only an oracle, which draws nothing, may have ``rng=None``.
    Masks carry no vocabulary: ``executive.run`` checks ``vocab`` once.
    """

    def __init__(
        self, vocab: Vocabulary, noise: NoiseModel | None = None,
        window: int = DEFAULT_WINDOW, *, rng: np.random.Generator | None,
    ):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.vocab = vocab
        self.noise = noise or NoiseModel()
        self.window: deque[int] = deque(maxlen=window)
        self.rng = rng
        self._oracle = self.noise.is_oracle
        if not self._oracle:
            if rng is None:
                raise ValueError("a noisy pipeline needs an rng to draw its flips from")
            self._flip_probs = self.noise.flip_vector(vocab)
            self._width = len(vocab)
            self._atoms = (1 << self._width) - 1
            self._block = 0  # undelivered flip masks, the next tick's lowest
            self._left = 0  # how many masks _block still holds
            self._rows = min(window, BLOCK_TICKS)  # of the next block drawn

    def warm_up(self, truth: int) -> int:
        """Fill the window with ``window`` estimates of the truth mask
        ``truth`` and return the last, the estimate a trial plans from."""
        for _ in range(self.window.maxlen - 1):
            self.estimate(truth)
        return self.estimate(truth)

    def estimate(self, truth: int) -> int:
        """Append a noisy observation of the truth mask ``truth`` to the
        window and return the filtered estimate mask.

        With an all-zero noise model the pipeline is a true oracle: the
        estimate equals the ground truth at every tick, with no filter lag
        and no randomness consumed.
        """
        if self._oracle:
            return truth
        if not self._left:
            flips = self.rng.random((self._rows, self._width)) < self._flip_probs
            packed = np.packbits(flips, bitorder="little").tobytes()
            self._block = int.from_bytes(packed, "little")
            self._left = self._rows
            self._rows = BLOCK_TICKS
        self._left -= 1
        flip_mask = self._block & self._atoms
        self._block >>= self._width
        self.window.append(truth ^ flip_mask)
        return majority(self.window)


def majority_error_rate(p: float, window: int = DEFAULT_WINDOW) -> float:
    """Probability that the majority over ``window`` i.i.d. flips is wrong.

    For window 3 this is p^2 (3 - 2p).  Ties (even windows) count as
    errors for a true atom, matching the ties-to-false filter on the
    majority boundary, so the errors start at half the window, rounded up.
    """
    need = (window + 1) // 2
    return sum(
        math.comb(window, k) * p**k * (1 - p) ** (window - k)
        for k in range(need, window + 1)
    )
