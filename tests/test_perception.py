"""Perception pipeline: noise model, majority filter, closed-form error rates.

Monte Carlo measurements are checked against independently derived
binomial quantities (mean Hamming distance n*p, majority error
p^2 (3 - 2p) for window 3).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainreact.logic import GroundAtom, LogicalState, PredicateSchema, Vocabulary
from chainreact.perception import (
    EmptyWindowError,
    EstimatorWindow,
    NoiseModel,
    PerceptionPipeline,
    majority_error_rate,
)


def make_vocab(n):
    return Vocabulary([GroundAtom(PredicateSchema(f"p{i}")) for i in range(n)])


class TestNoiseModel:
    def test_half_probability_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(default_flip=0.5)
        with pytest.raises(ValueError):
            NoiseModel(per_predicate_flip={"p0": 0.5})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(default_flip=-0.1)

    def test_flip_vector_per_predicate(self):
        vocab = make_vocab(3)
        model = NoiseModel(default_flip=0.1, per_predicate_flip={"p1": 0.3})
        assert list(model.flip_vector(vocab)) == [0.1, 0.3, 0.1]

    def test_oracle_flag(self):
        assert NoiseModel().is_oracle
        assert not NoiseModel(default_flip=0.01).is_oracle


def observer(vocab, noise, rng):
    """A window-1 pipeline: every estimate is the raw noisy snapshot."""
    return PerceptionPipeline(vocab, noise, window=1, rng=rng)


class TestObserve:
    def test_zero_flip_is_exact(self):
        # A vanishing (not exactly zero) flip keeps the noisy path engaged.
        vocab = make_vocab(8)
        pipe = observer(vocab, NoiseModel(default_flip=1e-12), np.random.default_rng(0))
        for mask in (0, 0b10101010, 0b11111111):
            truth = LogicalState(vocab, mask)
            assert pipe.estimate(truth) == truth

    def test_expected_hamming_distance(self):
        # 42-atom vocabulary, p = 0.1: binomial mean 4.2 flips per draw.
        vocab = make_vocab(42)
        pipe = observer(vocab, NoiseModel(default_flip=0.1), np.random.default_rng(1234))
        truth = LogicalState(vocab, (1 << 21) - 1)
        total = 0
        draws = 10_000
        for _ in range(draws):
            noisy = pipe.estimate(truth)
            total += bin(noisy.mask ^ truth.mask).count("1")
        assert abs(total / draws - 4.2) < 0.5

    def test_deterministic_given_seed(self):
        vocab = make_vocab(10)
        noise = NoiseModel(default_flip=0.2)
        truth = LogicalState(vocab, 0b1100110011)
        a = observer(vocab, noise, np.random.default_rng(7)).estimate(truth)
        b = observer(vocab, noise, np.random.default_rng(7)).estimate(truth)
        assert a == b


class TestWindow:
    def test_majority_two_of_three(self):
        w = EstimatorWindow(3)
        for bit in (1, 1, 0):
            w.push(bit)
        assert w.majority() == 1

    def test_single_estimate_passthrough(self):
        w = EstimatorWindow(3)
        w.push(0b01)
        assert w.majority() == 0b01

    def test_tie_breaks_false(self):
        w = EstimatorWindow(4)
        for bit in (1, 0):
            w.push(bit)
        assert w.majority() == 0

    def test_eviction(self):
        w = EstimatorWindow(3)
        for bit in (1, 1, 1, 0, 0):
            w.push(bit)  # the first two are evicted: one of the last three is True
        assert w.majority() == 0

    def test_empty_window_error(self):
        with pytest.raises(EmptyWindowError):
            EstimatorWindow(3).majority()

    @settings(max_examples=200)
    @given(
        capacity=st.integers(min_value=1, max_value=5),
        masks=st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1),
                       min_size=1, max_size=12),
    )
    def test_majority_matches_count_majority(self, capacity, masks):
        # Reference: per-atom counts over the last `capacity` pushes as a
        # numpy bool matrix, true where count * 2 > len (ties false).
        w = EstimatorWindow(capacity)
        for i, mask in enumerate(masks):
            w.push(mask)
            recent = masks[max(0, i + 1 - capacity): i + 1]
            bits = np.array([[m >> a & 1 for a in range(12)] for m in recent], dtype=bool)
            counts = bits.sum(axis=0)
            expected = sum(1 << a for a in range(12) if counts[a] * 2 > len(recent))
            assert w.majority() == expected


class TestPipeline:
    def test_oracle_mode_exact_every_tick(self):
        vocab = make_vocab(12)
        pipe = PerceptionPipeline(vocab, NoiseModel(), rng=np.random.default_rng(3))
        rng = np.random.default_rng(10)
        for _ in range(200):
            truth = LogicalState(vocab, int(rng.integers(0, 1 << 12)))
            assert pipe.estimate(truth) == truth

    def test_lag_after_truth_change(self):
        # Window 3 with (effectively) zero noise: after a step change the
        # majority needs at most ceil(3/2) = 2 ticks to converge.  A tiny
        # nonzero flip keeps the windowed path engaged (exactly zero noise
        # would bypass the filter entirely).
        vocab = make_vocab(6)
        pipe = PerceptionPipeline(
            vocab, NoiseModel(default_flip=1e-12), rng=np.random.default_rng(4)
        )
        old = LogicalState(vocab, 0b101010)
        new = LogicalState(vocab, 0b010101)
        for _ in range(5):
            pipe.estimate(old)
        first = pipe.estimate(new)
        second = pipe.estimate(new)
        assert second == new
        assert first == old  # one tick of lag is expected with window 3

    def test_closed_form_values(self):
        assert majority_error_rate(0.1, 3) == pytest.approx(0.028)
        assert majority_error_rate(0.05, 3) == pytest.approx(0.00725)
        # filtering must help for all p below one half
        for p in (0.02, 0.05, 0.1, 0.2, 0.4):
            assert majority_error_rate(p, 3) < p

    def test_empirical_filtered_error_rate(self):
        vocab = make_vocab(42)
        pipe = PerceptionPipeline(
            vocab, NoiseModel(default_flip=0.1), rng=np.random.default_rng(99)
        )
        truth = LogicalState(vocab, (1 << 42) - (1 << 10))
        ticks = 10_000
        wrong = 0
        for _ in range(ticks):
            est = pipe.estimate(truth)
            wrong += bin(est.mask ^ truth.mask).count("1")
        rate = wrong / (ticks * 42)
        assert abs(rate - 0.028) < 0.005

    def test_filtered_beats_raw_for_standard_probabilities(self):
        vocab = make_vocab(42)
        truth = LogicalState(vocab, (1 << 42) - (1 << 7))
        ticks = 10_000
        for p in (0.02, 0.05, 0.1, 0.2):
            pipe = PerceptionPipeline(
                vocab, NoiseModel(default_flip=p), rng=np.random.default_rng(int(p * 1000))
            )
            raw_wrong = filtered_wrong = 0
            for _ in range(ticks):
                est = pipe.estimate(truth)
                raw = pipe.window._buffer[-1]
                raw_wrong += bin(raw ^ truth.mask).count("1")
                filtered_wrong += bin(est.mask ^ truth.mask).count("1")
            assert filtered_wrong < raw_wrong

    def test_determinism_of_estimate_sequences(self):
        vocab = make_vocab(20)
        truth_rng = np.random.default_rng(55)
        truths = [LogicalState(vocab, int(truth_rng.integers(0, 1 << 20))) for _ in range(100)]

        def run(seed):
            pipe = PerceptionPipeline(
                vocab, NoiseModel(default_flip=0.15), rng=np.random.default_rng(seed)
            )
            return [pipe.estimate(t).mask for t in truths]

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestWideVocabulary:
    def test_pipeline_beyond_word_width(self):
        # byte packing must round-trip masks wider than 64 bits
        vocab = make_vocab(130)
        truth = LogicalState(vocab, (1 << 130) - (1 << 65) + 0b1011)
        pipe = PerceptionPipeline(vocab, NoiseModel(), rng=np.random.default_rng(0))
        assert pipe.estimate(truth) == truth
        noisy_pipe = PerceptionPipeline(
            vocab, NoiseModel(default_flip=0.2), rng=np.random.default_rng(1)
        )
        seen_diff = False
        for _ in range(20):
            est = noisy_pipe.estimate(truth)
            assert est.mask < (1 << 130)
            seen_diff |= est != truth
        assert seen_diff
