"""Chain builder: regression semantics, nominal safety, ordering enforcement.

The hand-checkable regression cases are verified against a set-based
reference executor written here (no bitmasks), and the ordering properties
are checked by brute-force prefix/skip enumeration on small random plans.
"""

import functools
import random

import pytest

from chainreact.chains import build_chain, verify_chain
from chainreact.harness import chain_payload
from chainreact.lang import parse_domain, parse_problem
from chainreact.logic import ConditionSet, apply_effects, holds
from chainreact.planner import Plan, ground, plan
from tests.test_planner import make_prop_task, random_task
from tests.util import (
    NEGATED_CARRY,
    NEGATED_PRE,
    bits,
    kitchen_domain,
    kitchen_problem,
    step_names,
)


def atom_names(cond):
    return set(cond.vocabulary.names_of(cond.pos_mask))


def extras(chain, key="extra_pre"):
    """Each step's extra conditions, as chain JSON lists them."""
    return [set(step[key]) for step in chain_payload(chain)["steps"]]


def toy_chain(goal_atoms):
    grounded = make_prop_task(
        [
            ("makeA", set(), {"a"}, set()),
            ("makeB", {"a"}, {"b"}, set()),
            ("finish", {"b"}, {"g"}, set()),
        ],
        ["a", "b", "g"],
        init=[],
        goal=goal_atoms,
    )
    result = plan(grounded)
    assert result.solved and step_names(result.plan.steps) == ["makeA", "makeB", "finish"]
    return grounded, build_chain(result.plan)


class TestRegressionSemantics:
    def test_three_step_goal_created_in_plan(self):
        grounded, chain = toy_chain(["g"])
        assert extras(chain) == [set(), set(), set()]
        assert atom_names(chain.front_conditions) == set()

    def test_three_step_goal_with_untouched_atom(self):
        # 'a' is needed by the goal but only makeA produces it, so it must
        # augment every later step.
        grounded = make_prop_task(
            [
                ("makeA", set(), {"a"}, set()),
                ("makeB", {"a"}, {"b"}, set()),
                ("finish", {"b"}, {"g"}, set()),
            ],
            ["a", "b", "g"],
            init=[],
            goal=["g", "a"],
        )
        result = plan(grounded)
        chain = build_chain(result.plan)
        # 'a' reaches both finish and makeB; for makeB it already sits in the
        # base precondition so the extra set stays disjoint from it.
        assert extras(chain) == [set(), set(), {"a"}]
        assert "a" in atom_names(chain.steps[1].effective_pre)
        assert "a" in atom_names(chain.steps[2].effective_pre)
        assert "a" not in atom_names(chain.steps[0].effective_pre)
        # extras land in the run sets as well
        assert "a" in extras(chain, "extra_run")[2]

    def test_empty_plan_empty_goal(self):
        grounded = make_prop_task([], ["a"], [], [])
        empty_goal = ConditionSet(grounded.vocabulary)
        chain = build_chain(Plan((), grounded.init, empty_goal))
        assert len(chain.steps) == 0
        assert verify_chain(chain, grounded.init)

    def test_negative_goal_builds(self):
        # A negated goal atom is regressed like a required one: with no
        # step to delete it, it must be false where the chain starts.
        grounded = make_prop_task([], ["a"], [], [])
        goal = ConditionSet(grounded.vocabulary, neg_mask=bits(grounded.vocabulary, "a"))
        chain = build_chain(Plan((), grounded.init, goal))
        assert chain.front_conditions == goal
        assert chain_payload(chain)["goal_neg"] == ["a"]

    @pytest.mark.parametrize("source", ["kitchen", "negated_pre"])
    def test_monotone_augmentation(self, source):
        if source == "kitchen":
            grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        else:
            domain = parse_domain(NEGATED_PRE[0]).value
            grounded = ground(domain, parse_problem(NEGATED_PRE[1], domain).value)
        chain = build_chain(plan(grounded).plan)
        for step in chain.steps:
            for effective, own in ((step.effective_pre, step.base.pre),
                                   (step.effective_run, step.base.run)):
                assert effective.pos_mask & own.pos_mask == own.pos_mask
                assert effective.neg_mask & own.neg_mask == own.neg_mask
        payload = chain_payload(chain)["steps"]
        for step in payload:
            for key in ("pre", "run", "pre_neg", "run_neg"):
                assert not set(step[f"extra_{key}"]) & set(step[key])
        assert any(step["extra_pre_neg"] for step in payload) == (source == "negated_pre")

    def test_run_condition_keeps_its_own_negation_over_a_carried_atom(self):
        # The run condition of a used to gain the carried p as well, and
        # ConditionSet raised on p required and negated.
        domain = parse_domain(NEGATED_CARRY[0]).value
        grounded = ground(domain, parse_problem(NEGATED_CARRY[1], domain).value)
        chain = build_chain(plan(grounded).plan)
        assert step_names(s.base for s in chain.steps) == ["a", "b"]
        assert extras(chain) == [{"p"}, set()]
        assert extras(chain, "extra_run") == [set(), set()]
        assert extras(chain, "extra_pre_neg") == extras(chain, "extra_run_neg") == [set(), set()]
        assert [step["run_neg"] for step in chain_payload(chain)["steps"]] == [["p"], []]
        vocab = grounded.vocabulary
        assert chain.steps[0].effective_run == ConditionSet(
            vocab, bits(vocab, "q"), bits(vocab, "p")
        )
        assert verify_chain(chain, grounded.init)

    def test_run_condition_keeps_its_own_requirement_over_a_carried_negation(self):
        # The mirror image of the test above, on NEGATED_PRE.
        domain = parse_domain(NEGATED_PRE[0]).value
        grounded = ground(domain, parse_problem(NEGATED_PRE[1], domain).value)
        chain = build_chain(plan(grounded).plan)
        assert step_names(s.base for s in chain.steps) == ["a", "b"]
        assert extras(chain, "extra_pre_neg") == [{"p"}, set()]
        assert extras(chain, "extra_run_neg") == [set(), set()]
        assert chain_payload(chain)["front_conditions_neg"] == ["p"]
        vocab = grounded.vocabulary
        assert chain.steps[0].effective_pre == ConditionSet(
            vocab, bits(vocab, "q"), bits(vocab, "p")
        )
        assert chain.steps[0].effective_run == ConditionSet(vocab, bits(vocab, "q", "p"))
        assert verify_chain(chain, grounded.init)


class TestKitchenChain:
    def test_goal_augmentation_pattern(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        chain = build_chain(plan(grounded).plan)
        names = step_names(s.base for s in chain.steps)
        in_drawer = "obj_is_in_drawer(spam)"

        # drawer_is_closed is created by the last step and augments nothing.
        for step in chain.steps[:-1]:
            assert "drawer_is_closed" not in atom_names(step.effective_pre)

        # obj_is_in_drawer(spam) is created by lower_obj_into_drawer and
        # augments exactly the steps after it.
        lower_at = names.index("lower_obj_into_drawer(spam)")
        assert [s.base.name for s in chain.steps[lower_at + 1 :]] == [
            "release_obj", "approach_drawer_close", "push_drawer",
        ]
        for pre, run in zip(extras(chain)[lower_at + 1 :], extras(chain, "extra_run")[lower_at + 1 :]):
            assert in_drawer in pre and in_drawer in run
        for step in chain.steps[: lower_at + 1]:
            assert in_drawer not in atom_names(step.effective_pre)

        # drawer_is_open is created by pull_drawer and carried through the
        # whole pick-and-place stretch.
        pull_at = names.index("pull_drawer")
        for step in chain.steps[pull_at + 1 : -1]:
            assert "drawer_is_open" in atom_names(step.effective_pre)

    def test_verify_chain_from_k1(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        chain = build_chain(plan(grounded).plan)
        assert verify_chain(chain, grounded.init)


def sound_random_plans(count, seed, max_steps=8, max_atoms=12):
    """Yield (grounded, plan) pairs for random solvable tasks."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        specs, atoms, init, goal = random_task(rng, n_atoms=rng.randint(3, max_atoms))
        grounded = make_prop_task(specs, atoms, init, goal)
        result = plan(grounded)
        if not result.solved or len(result.plan) > max_steps:
            continue
        produced += 1
        yield grounded, result.plan


class TestChainProperties:
    def test_nominal_safety_500_random_sound_plans(self):
        for grounded, p in sound_random_plans(500, seed=31337):
            chain = build_chain(p)
            assert verify_chain(chain, grounded.init)

    def test_random_sub_goal_plans_verify(self):
        # A chain for another goal the steps reach comes from a Plan with
        # that goal: here a random subset of the atoms the steps reach,
        # which covers every subset of the search goal.
        rng = random.Random(2718)
        for grounded, p in sound_random_plans(500, seed=4242):
            reached = functools.reduce(
                lambda state, op: apply_effects(state, op.eff), p.steps, p.init
            ).mask
            sub = 0
            for b in range(len(grounded.vocabulary)):
                if reached >> b & 1 and rng.random() < 0.5:
                    sub |= 1 << b
            chain = build_chain(Plan(p.steps, p.init, ConditionSet(grounded.vocabulary, sub)))
            assert chain.goal.pos_mask == sub
            assert verify_chain(chain, grounded.init)

    def test_broken_chain_detected(self):
        grounded, chain = toy_chain(["g"])
        # Force an extra precondition that nothing produces and the init lacks.
        from chainreact.chains import AugmentedOperator, Chain

        vocab = grounded.vocabulary
        first = chain.steps[0]
        hacked = AugmentedOperator(
            base=first.base,
            effective_pre=ConditionSet(vocab, first.base.pre.pos_mask | bits(vocab, "g")),
            effective_run=first.effective_run,
        )
        bad = Chain((hacked,) + chain.steps[1:], chain.goal, chain.front_conditions)
        assert not verify_chain(bad, grounded.init)

    def test_skip_enumeration_ordering_and_early_entry_safety(self):
        """For every prefix cut (i, j): either step j is unenterable at the
        state before step i (ordering enforced), or entering early and
        running j..n is safe and still reaches the goal."""
        enforced = allowed = 0
        for grounded, p in sound_random_plans(500, seed=99991):
            chain = build_chain(p)
            # forward prefix states
            states = [grounded.init]
            for step in chain.steps:
                from chainreact.logic import apply_effects

                states.append(apply_effects(states[-1], step.base.eff))
            for j in range(len(chain.steps)):
                for i in range(j + 1):
                    before_i = states[i]
                    if not holds(before_i, chain.steps[j].effective_pre):
                        enforced += 1
                        continue
                    allowed += 1
                    state = before_i
                    for k in range(j, len(chain.steps)):
                        assert holds(state, chain.steps[k].effective_pre), (
                            f"early entry at {j} from prefix {i} broke step {k}"
                        )
                        from chainreact.logic import apply_effects

                        state = apply_effects(state, chain.steps[k].base.eff)
                    assert holds(state, chain.goal)
        assert enforced > 100  # ordering must actually bite
        assert allowed > 100  # and legal jumps must occur too

    def test_kitchen_prefix_skip_blocks_jump_ahead(self):
        """From the reference configuration, with the pick phase skipped, the close phase must be
        blocked by the propagated obj_is_in_drawer(spam) condition."""
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        chain = build_chain(plan(grounded).plan)
        from chainreact.logic import apply_effects

        state = grounded.init
        names = step_names(s.base for s in chain.steps)
        stop = names.index("release_handle") + 1
        for step in chain.steps[:stop]:
            state = apply_effects(state, step.base.eff)
        # base preconditions of approach_drawer_close hold (arm free, drawer
        # open) but the chain must refuse it: spam is not in the drawer yet.
        close = chain.steps[names.index("approach_drawer_close")]
        assert holds(state, close.base.pre)
        assert not holds(state, close.effective_pre)
