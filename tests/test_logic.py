"""Logic core: condition evaluation and effect application.

The independent oracle here evaluates conditions over plain Python sets of
atom names, with no bitmask machinery, and is cross-checked against the
package on randomly generated small vocabularies.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainreact.logic import (
    ConditionSet,
    EffectSet,
    GroundAtom,
    LogicalState,
    PredicateSchema,
    UnknownAtomError,
    Vocabulary,
    apply_effects,
    holds,
)


def nullary(name):
    return GroundAtom(PredicateSchema(name))


def make_vocab(n):
    return Vocabulary([nullary(f"p{i}") for i in range(n)])


def oracle_holds(state_names, pos_names, neg_names):
    """Set-based reference semantics for `holds`."""
    return all(p in state_names for p in pos_names) and all(
        n not in state_names for n in neg_names
    )


class TestTypes:
    def test_arity_limit(self):
        with pytest.raises(ValueError):
            PredicateSchema("p", ("a", "b", "c", "d"))

    def test_atom_arity_checked(self):
        schema = PredicateSchema("p", ("t",))
        with pytest.raises(ValueError):
            GroundAtom(schema, ())

    def test_atoms_value_comparable(self):
        a = GroundAtom(PredicateSchema("p", ("t",)), ("x",))
        b = GroundAtom(PredicateSchema("p", ("t",)), ("x",))
        assert a == b and hash(a) == hash(b)

    def test_condition_rejects_both_polarities(self):
        vocab = make_vocab(1)
        atom = vocab.atoms[0]
        with pytest.raises(ValueError):
            ConditionSet.from_atoms(vocab, positive=[atom], negative=[atom])

    def test_effects_reject_overlap(self):
        vocab = make_vocab(1)
        atom = vocab.atoms[0]
        with pytest.raises(ValueError):
            EffectSet.from_atoms(vocab, adds=[atom], deletes=[atom])

    def test_vocabulary_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary([nullary("p"), nullary("p")])

    def test_unknown_atom(self):
        vocab = make_vocab(2)
        with pytest.raises(UnknownAtomError):
            vocab.id_of(nullary("q"))
        with pytest.raises(UnknownAtomError):
            vocab.get("q")


class TestHolds:
    def test_subset(self):
        vocab = Vocabulary([nullary("drawer_is_open"), nullary("gripper_is_open")])
        state = LogicalState.from_atoms(vocab, vocab.atoms)
        cond = ConditionSet.from_atoms(vocab, positive=[vocab.get("drawer_is_open")])
        assert holds(state, cond)

    def test_empty_conjunction(self):
        vocab = make_vocab(3)
        cond = ConditionSet.from_atoms(vocab)
        for mask in range(8):
            assert holds(LogicalState(vocab, mask), cond)

    def test_negative_literal(self):
        vocab = Vocabulary([nullary("drawer_is_open"), nullary("gripper_is_open")])
        state = LogicalState.from_atoms(vocab, [vocab.get("drawer_is_open")])
        cond = ConditionSet.from_atoms(
            vocab,
            positive=[vocab.get("drawer_is_open")],
            negative=[vocab.get("gripper_is_open")],
        )
        # Independent check: enumerate the full 2-atom truth table.
        for mask in range(4):
            names = {
                vocab.atoms[i].predicate.name for i in range(2) if mask >> i & 1
            }
            expected = oracle_holds(names, {"drawer_is_open"}, {"gripper_is_open"})
            assert holds(LogicalState(vocab, mask), cond) == expected
        assert holds(state, cond)

    def test_vocabulary_mismatch(self):
        v1, v2 = make_vocab(2), make_vocab(2)
        with pytest.raises(UnknownAtomError):
            holds(LogicalState(v1, 0), ConditionSet.from_atoms(v2))

    @settings(max_examples=200)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=8))
    def test_agrees_with_truth_table(self, data, n):
        vocab = make_vocab(n)
        names = [a.predicate.name for a in vocab.atoms]
        pos = data.draw(st.sets(st.sampled_from(names)))
        neg = data.draw(st.sets(st.sampled_from(names))) - pos
        cond = ConditionSet.from_atoms(
            vocab,
            positive=[vocab.get(p) for p in pos],
            negative=[vocab.get(q) for q in neg],
        )
        for bits in itertools.product([0, 1], repeat=n):
            state_names = {names[i] for i in range(n) if bits[i]}
            state = LogicalState.from_atoms(
                vocab, [vocab.get(p) for p in state_names]
            )
            assert holds(state, cond) == oracle_holds(state_names, pos, neg)


class TestApplyEffects:
    def test_basic(self):
        vocab = Vocabulary([nullary("a"), nullary("b")])
        a, b = vocab.get("a"), vocab.get("b")
        state = LogicalState.from_atoms(vocab, [a])
        out = apply_effects(state, EffectSet.from_atoms(vocab, adds=[b], deletes=[a]))
        assert out.atoms == frozenset([b])
        assert state.atoms == frozenset([a])  # input unmodified

    def test_identity(self):
        vocab = make_vocab(4)
        state = LogicalState(vocab, 0b1010)
        assert apply_effects(state, EffectSet.from_atoms(vocab)) == state

    def test_idempotent_add(self):
        vocab = make_vocab(1)
        a = vocab.atoms[0]
        state = LogicalState.from_atoms(vocab, [a])
        assert apply_effects(state, EffectSet.from_atoms(vocab, adds=[a])) == state

    def test_delete_absent_is_noop(self):
        vocab = make_vocab(2)
        state = LogicalState(vocab, 0b10)
        eff = EffectSet.from_atoms(vocab, deletes=[vocab.atoms[0]])
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
        expected = (state.atoms - vocab.atoms_of(dels)) | vocab.atoms_of(adds)
        assert once.atoms == expected


class TestGoalSatisfied:
    def test_empty_goal(self):
        vocab = make_vocab(3)
        for mask in range(8):
            assert holds(LogicalState(vocab, mask), ConditionSet.from_atoms(vocab))


class TestWideVocabulary:
    """Masks wider than a machine word (vocabularies beyond 64 atoms)."""

    def test_holds_and_apply_beyond_word_width(self):
        vocab = make_vocab(130)
        high = vocab.get("p129")
        low = vocab.get("p0")
        state = LogicalState.from_atoms(vocab, [low, high])
        cond = ConditionSet.from_atoms(vocab, positive=[high], negative=[vocab.get("p64")])
        assert holds(state, cond)
        out = apply_effects(
            state, EffectSet.from_atoms(vocab, adds=[vocab.get("p64")], deletes=[high])
        )
        assert vocab.get("p64") in out and high not in out and low in out



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
        state = LogicalState(kitchen_vocab, mask & ((1 << len(kitchen_vocab)) - 1))
        assert state.sorted_names() == sorted(str(a) for a in state.atoms)

    def test_condition_text_lists_positives_then_negatives(self, kitchen_vocab):
        cond = ConditionSet.from_atoms(
            kitchen_vocab,
            positive=[kitchen_vocab.get("drawer_is_open"), kitchen_vocab.get("obj_is_attached", "spam")],
            negative=[kitchen_vocab.get("obj_is_in_drawer", "sugar"), kitchen_vocab.get("arm_is_moving")],
        )
        assert str(cond) == (
            "{+drawer_is_open, +obj_is_attached(spam), "
            "-arm_is_moving, -obj_is_in_drawer(sugar)}"
        )
        assert str(ConditionSet.from_atoms(kitchen_vocab)) == "{}"
