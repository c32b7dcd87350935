"""Logic core: condition evaluation and effect application.

The independent oracle here evaluates conditions over plain Python sets of
atom names, with no bitmask machinery, and is cross-checked against the
package on randomly generated small vocabularies.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainreact.logic import (
    ConditionSet,
    EffectSet,
    LogicalState,
    PredicateSchema,
    UnknownAtomError,
    Vocabulary,
    apply_effects,
    holds,
)
from tests.util import bits


def make_vocab(n):
    return Vocabulary((f"p{i}", ()) for i in range(n))


def names_in(vocab, mask):
    """The printed names of the atoms in ``mask``, as a set."""
    return {name for i, name in enumerate(vocab.names) if mask >> i & 1}


def oracle_holds(state_names, pos_names, neg_names):
    """Set-based reference semantics for `holds`."""
    return all(p in state_names for p in pos_names) and all(
        n not in state_names for n in neg_names
    )


class TestTypes:
    def test_arity_limit(self):
        with pytest.raises(ValueError):
            PredicateSchema("p", ("a", "b", "c", "d"))

    def test_names_print_arguments(self):
        vocab = Vocabulary([("p", ()), ("q", ("a",)), ("r", ("a", "b"))])
        assert vocab.names == ("p", "q(a)", "r(a, b)")
        assert [vocab.bit_of(*key) for key in vocab.bits] == [1, 2, 4]

    def test_condition_rejects_both_polarities(self):
        # The message names the colliding atoms only.
        vocab = make_vocab(4)
        pos, neg = bits(vocab, "p0", "p1", "p2"), bits(vocab, "p1", "p2", "p3")
        message = r"^atoms with both polarities in condition set: p1, p2$"
        with pytest.raises(ValueError, match=message):
            ConditionSet(vocab, pos, neg)

    def test_effects_reject_overlap(self):
        vocab = make_vocab(3)
        with pytest.raises(ValueError, match=r"^atoms both added and deleted: p1$"):
            EffectSet(vocab, bits(vocab, "p0", "p1"), bits(vocab, "p1", "p2"))

    def test_equal_states_hash_equal(self):
        vocab = make_vocab(3)
        mask = bits(vocab, "p0", "p2")
        a, b = LogicalState(vocab, mask), LogicalState(vocab, mask)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, LogicalState(vocab, bits(vocab, "p1"))}) == 2

    def test_states_differ_on_mask_or_vocabulary(self):
        vocab, twin = make_vocab(3), make_vocab(3)
        state = LogicalState(vocab, bits(vocab, "p0"))
        assert state != LogicalState(vocab, bits(vocab, "p1"))
        assert state != LogicalState(twin, state.mask)
        assert state != state.mask

    def test_vocabulary_rejects_duplicates(self):
        with pytest.raises(ValueError, match=r"^duplicate atom p in vocabulary$"):
            Vocabulary([("p", ()), ("p", ())])
        with pytest.raises(ValueError, match=r"^duplicate atom p\(x, y\) in vocabulary$"):
            Vocabulary([("p", ("x", "y")), ("q", ()), ("p", ("x", "y"))])

    def test_unknown_atom(self):
        vocab = make_vocab(2)
        with pytest.raises(UnknownAtomError, match=r"atom q is not in the vocabulary"):
            vocab.bit_of("q", ())
        with pytest.raises(UnknownAtomError, match=r"atom p0\(x\) is not in the vocabulary"):
            vocab.bit_of("p0", ("x",))


class TestHolds:
    def test_subset(self):
        vocab = Vocabulary([("drawer_is_open", ()), ("gripper_is_open", ())])
        state = LogicalState(vocab, bits(vocab, "drawer_is_open", "gripper_is_open"))
        cond = ConditionSet(vocab, bits(vocab, "drawer_is_open"))
        assert holds(state, cond)

    def test_empty_conjunction(self):
        vocab = make_vocab(3)
        cond = ConditionSet(vocab)
        for mask in range(8):
            assert holds(LogicalState(vocab, mask), cond)

    def test_negative_literal(self):
        vocab = Vocabulary([("drawer_is_open", ()), ("gripper_is_open", ())])
        state = LogicalState(vocab, bits(vocab, "drawer_is_open"))
        cond = ConditionSet(
            vocab, bits(vocab, "drawer_is_open"), bits(vocab, "gripper_is_open")
        )
        # Independent check: enumerate the full 2-atom truth table.
        for mask in range(4):
            expected = oracle_holds(
                names_in(vocab, mask), {"drawer_is_open"}, {"gripper_is_open"}
            )
            assert holds(LogicalState(vocab, mask), cond) == expected
        assert holds(state, cond)

    def test_vocabulary_mismatch(self):
        v1, v2 = make_vocab(2), make_vocab(2)
        with pytest.raises(UnknownAtomError):
            holds(LogicalState(v1, 0), ConditionSet(v2))

    @settings(max_examples=200)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=8))
    def test_agrees_with_truth_table(self, data, n):
        vocab = make_vocab(n)
        names = list(vocab.names)
        pos = data.draw(st.sets(st.sampled_from(names)))
        neg = data.draw(st.sets(st.sampled_from(names))) - pos
        cond = ConditionSet(vocab, bits(vocab, *pos), bits(vocab, *neg))
        for truth in itertools.product([0, 1], repeat=n):
            state_names = {names[i] for i in range(n) if truth[i]}
            state = LogicalState(vocab, bits(vocab, *state_names))
            assert holds(state, cond) == oracle_holds(state_names, pos, neg)


class TestApplyEffects:
    def test_basic(self):
        vocab = Vocabulary([("a", ()), ("b", ())])
        a, b = bits(vocab, "a"), bits(vocab, "b")
        state = LogicalState(vocab, a)
        out = apply_effects(state, EffectSet(vocab, add_mask=b, del_mask=a))
        assert vocab.names_of(out.mask) == ["b"]
        assert vocab.names_of(state.mask) == ["a"]  # input unmodified

    def test_identity(self):
        vocab = make_vocab(4)
        state = LogicalState(vocab, 0b1010)
        assert apply_effects(state, EffectSet(vocab)) == state

    def test_idempotent_add(self):
        vocab = make_vocab(1)
        a = bits(vocab, "p0")
        state = LogicalState(vocab, a)
        assert apply_effects(state, EffectSet(vocab, add_mask=a)) == state

    def test_delete_absent_is_noop(self):
        vocab = make_vocab(2)
        state = LogicalState(vocab, 0b10)
        eff = EffectSet(vocab, del_mask=bits(vocab, "p0"))
        assert apply_effects(state, eff) == state

    @settings(max_examples=200)
    @given(
        n=st.integers(min_value=1, max_value=8),
        state_bits=st.integers(min_value=0),
        add_bits=st.integers(min_value=0),
        del_bits=st.integers(min_value=0),
    )
    def test_applying_twice_equals_once(self, n, state_bits, add_bits, del_bits):
        vocab = make_vocab(n)
        full = (1 << n) - 1
        adds = add_bits & full
        dels = del_bits & full & ~adds
        eff = EffectSet(vocab, adds, dels)
        state = LogicalState(vocab, state_bits & full)
        once = apply_effects(state, eff)
        assert apply_effects(once, eff) == once
        # Reference semantics over sets.
        expected = (names_in(vocab, state.mask) - names_in(vocab, dels)) | names_in(vocab, adds)
        assert names_in(vocab, once.mask) == expected


class TestGoalSatisfied:
    def test_empty_goal(self):
        vocab = make_vocab(3)
        for mask in range(8):
            assert holds(LogicalState(vocab, mask), ConditionSet(vocab))


class TestWideVocabulary:
    """Masks wider than a machine word (vocabularies beyond 64 atoms)."""

    def test_holds_and_apply_beyond_word_width(self):
        vocab = make_vocab(130)
        high, mid, low = bits(vocab, "p129"), bits(vocab, "p64"), bits(vocab, "p0")
        state = LogicalState(vocab, low | high)
        cond = ConditionSet(vocab, pos_mask=high, neg_mask=mid)
        assert holds(state, cond)
        out = apply_effects(state, EffectSet(vocab, add_mask=mid, del_mask=high))
        assert out.mask == low | mid

    @settings(max_examples=200)
    @given(mask=st.integers(min_value=0, max_value=(1 << 130) - 1))
    @example(mask=1 << 129 | 1 << 64 | 1 << 10 | 1 << 2)
    def test_names_of_matches_sorted_atom_strings(self, mask):
        # Name order is string order: "p10" comes before "p2".
        vocab = make_vocab(130)
        assert vocab.names_of(mask) == sorted(names_in(vocab, mask))

    def test_overlap_errors_name_atoms_in_name_order(self):
        vocab = make_vocab(130)
        both = 1 << 2 | 1 << 10 | 1 << 100
        with pytest.raises(ValueError, match=r"polarities in condition set: p10, p100, p2$"):
            ConditionSet(vocab, both, both)
        with pytest.raises(ValueError, match=r"added and deleted: p10, p100, p2$"):
            EffectSet(vocab, both, both)


@pytest.fixture(scope="module")
def kitchen_vocab():
    from chainreact.planner import ground
    from tests.util import kitchen_domain, kitchen_problem

    return ground(kitchen_domain(), kitchen_problem("put_away_both")).vocabulary


class TestSortedNames:
    @settings(max_examples=200)
    @given(mask=st.integers(min_value=0, max_value=(1 << 42) - 1))
    def test_matches_sorted_atom_strings(self, kitchen_vocab, mask):
        # Kitchen atoms take arguments, so "name(arg)" sorts against
        # "name_suffix" as the strings do.
        mask &= (1 << len(kitchen_vocab)) - 1
        assert kitchen_vocab.names_of(mask) == sorted(names_in(kitchen_vocab, mask))
