"""Perception pipeline: noise model, majority filter, closed-form error rates.

Monte Carlo measurements are checked against independently derived
binomial quantities (mean Hamming distance n*p, majority error
p^2 (3 - 2p) for window 3).
"""

import io
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainreact.harness import load_scenario, run_trial
from chainreact.logic import LogicalState, Vocabulary
from chainreact.perception import (
    NoiseModel,
    PerceptionPipeline,
    majority,
    majority_error_rate,
)
from chainreact.planner import ground
from tests.util import kitchen_domain, kitchen_problem, scenario_path


def make_vocab(n):
    return Vocabulary((f"p{i}", ()) for i in range(n))


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

    def test_flip_vector_per_predicate_with_arguments(self):
        # Every atom of a predicate that takes arguments gets its flip.
        vocab = ground(kitchen_domain(), kitchen_problem("put_away_both")).vocabulary
        model = NoiseModel(default_flip=0.1, per_predicate_flip={"obj_is_detected": 0.3})
        flips = dict(zip(vocab.names, model.flip_vector(vocab)))
        detected = {"obj_is_detected(spam)", "obj_is_detected(sugar)"}
        assert {name for name, p in flips.items() if p == 0.3} == detected
        assert all(p == 0.1 for name, p in flips.items() if name not in detected)

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
        assert majority([1, 1, 0]) == 1

    def test_single_estimate_passthrough(self):
        assert majority([0b01]) == 0b01

    def test_tie_breaks_false(self):
        assert majority([1, 0]) == 0

    def test_eviction(self):
        window = deque(maxlen=3)
        window.extend([1, 1, 1, 0, 0])  # the first two are evicted
        assert majority(window) == 0

    def test_no_masks_give_false(self):
        assert majority([]) == 0

    def test_window_below_one_rejected(self):
        with pytest.raises(ValueError):
            PerceptionPipeline(make_vocab(3), window=0, rng=np.random.default_rng(0))

    @settings(max_examples=200)
    @given(
        capacity=st.integers(min_value=1, max_value=5),
        masks=st.lists(st.integers(min_value=0, max_value=(1 << 130) - 1),
                       min_size=1, max_size=12),
    )
    def test_majority_matches_count_majority(self, capacity, masks):
        # Reference: per-atom counts over the last `capacity` masks as a
        # numpy bool matrix, true where count * 2 > len (ties false).  Masks
        # reach 130 bits, beyond one machine word, for the window-3 closed
        # form and the general loop alike.
        window = deque(maxlen=capacity)
        for i, mask in enumerate(masks):
            window.append(mask)
            recent = masks[max(0, i + 1 - capacity): i + 1]
            bits = np.array([[m >> a & 1 for a in range(130)] for m in recent], dtype=bool)
            counts = bits.sum(axis=0)
            expected = sum(1 << a for a in range(130) if counts[a] * 2 > len(recent))
            assert majority(window) == expected


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

    @pytest.mark.parametrize("window, rate", [(2, 0.19), (4, 0.0523)])
    def test_even_window_error_rate_of_a_true_atom(self, window, rate):
        # A tie filters to false, so a true atom reads wrong once half of
        # its window is flipped: at window 2 that is 1 - 0.9^2, one flip.
        assert majority_error_rate(0.1, window) == pytest.approx(rate)
        vocab = make_vocab(42)
        pipe = PerceptionPipeline(
            vocab, NoiseModel(default_flip=0.1), window, rng=np.random.default_rng(window)
        )
        truth = LogicalState(vocab, (1 << 42) - 1)
        pipe.warm_up(truth)
        ticks = 5_000
        wrong = sum(bin(pipe.estimate(truth).mask ^ truth.mask).count("1") for _ in range(ticks))
        assert abs(wrong / (ticks * 42) - rate) < 0.01

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
                raw = pipe.window[-1]
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


class TestWarmUp:
    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(default_flip=0.2)],
                             ids=["oracle", "noisy"])
    @pytest.mark.parametrize("width", [8, 65, 130])
    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 64, 65, 70])
    def test_warm_up_equals_window_estimates(self, window, width, noise):
        # The returned mask and the next 100 estimates match, so the warm-up
        # leaves the window and the flip block where `window` calls do.
        vocab = make_vocab(width)
        truth = LogicalState(vocab, (1 << width) // 3)
        warmed = PerceptionPipeline(vocab, noise, window, rng=np.random.default_rng(5))
        stepped = PerceptionPipeline(vocab, noise, window, rng=np.random.default_rng(5))
        for _ in range(window):
            last = stepped.estimate(truth)
        assert warmed.warm_up(truth) == last
        truth_rng = np.random.default_rng(width + window)
        for _ in range(100):
            truth = LogicalState(vocab, int.from_bytes(truth_rng.bytes(17), "little")
                                 & ((1 << width) - 1))
            assert warmed.estimate(truth) == stepped.estimate(truth)


def per_tick_estimate(pipe, truth):
    """Reference for PerceptionPipeline.estimate: one ``rng.random(n)`` draw
    per tick instead of one draw per block of ticks."""
    if pipe.noise.is_oracle:
        return truth
    flips = pipe.rng.random(len(pipe.vocab)) < pipe.noise.flip_vector(pipe.vocab)
    packed = np.packbits(flips, bitorder="little").tobytes()
    pipe.window.append(truth.mask ^ int.from_bytes(packed, "little"))
    return LogicalState(pipe.vocab, majority(pipe.window))


class TestBlockDraws:
    """Flips drawn a block of ticks at a time give the per-tick estimates."""

    @pytest.mark.parametrize("width", [1, 8, 31, 64, 65, 130])
    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 70])
    def test_block_pipeline_equals_per_tick_reference(self, width, window):
        # 230 ticks cross three block boundaries after the warm-up block;
        # window 70 makes the warm-up itself span two blocks.
        vocab = make_vocab(width)
        noises = [
            NoiseModel(default_flip=0.2,
                       per_predicate_flip={f"p{i}": 0.0 for i in range(0, width, 3)}),
            NoiseModel(per_predicate_flip={"p0": 0.45, f"p{width - 1}": 0.1}),
        ]
        truth_rng = np.random.default_rng(width * 100 + window)
        truths = []
        mask = 0
        for _ in range(230):
            if truth_rng.random() < 0.3:
                mask = int.from_bytes(truth_rng.bytes(17), "little") & ((1 << width) - 1)
            truths.append(LogicalState(vocab, mask))
        for noise in noises:
            for seed in (0, 1, 2):
                block = PerceptionPipeline(vocab, noise, window, rng=np.random.default_rng(seed))
                ref = PerceptionPipeline(vocab, noise, window, rng=np.random.default_rng(seed))
                for tick, truth in enumerate(truths):
                    assert block.estimate(truth).mask == per_tick_estimate(ref, truth).mask, tick

    @pytest.mark.parametrize("window", [1, 5, 70])
    def test_trials_off_the_shipped_window_equal_the_reference(self, window, monkeypatch):
        # Every shipped noisy scenario uses window 3; the block draw must
        # give the per-tick records and traces at other windows too.  200
        # ticks still cross three blocks after a window-70 warm-up and keep
        # window 70's majority loop, 36 passes per mask, to seconds.
        overrides = {"perception": {"window": window}, "max_ticks": 200}

        def run(index):
            scenario = load_scenario(scenario_path("put_away_spam_noisy"), overrides)
            sink = io.StringIO()
            return run_trial(scenario, index, trace_sink=sink), sink.getvalue()

        block = [run(i) for i in range(20)]
        monkeypatch.setattr(PerceptionPipeline, "estimate", per_tick_estimate)
        assert [run(i) for i in range(20)] == block
