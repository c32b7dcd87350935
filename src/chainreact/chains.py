"""Robust chains: plans augmented by backward condition propagation.

Literals of both polarities are regressed from the goal through the plan,
stopping at the step whose effects make them true: the step that adds an
atom needed true, or deletes one needed false.  Every step in between gains
the literal in its entry (pre) set, and in its continuation (run) set unless
that requires the opposite.  Each step's own preconditions join the carried
sets, so mid-plan achievements are ordered as well, not just the goal.  The
reactive executive can then never enter a step whose prerequisites a
skipped step was supposed to establish, and entering a step whose effective
conditions hold is always safe for the remainder of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .logic import ConditionSet, LogicalState, apply_effects, holds
from .planner import GroundOperator, Plan


@dataclass(frozen=True)
class AugmentedOperator:
    """A ground operator plus the conditions regression attached to it."""

    base: GroundOperator
    effective_pre: ConditionSet
    effective_run: ConditionSet


@dataclass(frozen=True)
class Chain:
    """Ordered augmented steps; same order as the source plan, last step is
    the highest priority."""

    steps: tuple[AugmentedOperator, ...]
    goal: ConditionSet
    # Conditions regression pushed past the first step; they must already
    # hold in any state the chain is meant to run from.
    front_conditions: ConditionSet
    # executive.run's selection memo: (truth mask, current step) -> step
    selections: dict[tuple[int, int | None], int | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def build_chain(plan: Plan) -> Chain:
    """Back-propagate conditions from the plan's goal through its steps.

    Walking from the last step to the first, the carried sets hold every
    literal some later step (or the goal) needs that no step in between
    makes true: ``carry`` the atoms needed true, ``carry_neg`` those needed
    false.  A step's extras are the carried atoms it does not add, and the
    carried negated atoms it does not delete; its own preconditions then
    join the carry.  No step undoes a carried literal: :class:`Plan` is
    sound, so each carried literal holds when the step that needs it runs.
    A step's run condition leaves out the extras whose opposite it requires
    itself, since it may run while they fail; its precondition contradicts
    none of them.  For a narrower goal, build from
    ``Plan(plan.steps, plan.init, narrower)``.
    """
    goal = plan.goal
    vocab = goal.vocabulary
    carry, carry_neg = goal.pos_mask, goal.neg_mask
    augmented: list[AugmentedOperator] = []
    for op in reversed(plan.steps):
        extra = carry & ~op.eff.add_mask
        extra_neg = carry_neg & ~op.eff.del_mask
        augmented.append(
            AugmentedOperator(
                base=op,
                effective_pre=ConditionSet(
                    vocab, op.pre.pos_mask | extra, op.pre.neg_mask | extra_neg
                ),
                effective_run=ConditionSet(
                    vocab, op.run.pos_mask | extra & ~op.run.neg_mask,
                    op.run.neg_mask | extra_neg & ~op.run.pos_mask,
                ),
            )
        )
        carry, carry_neg = extra | op.pre.pos_mask, extra_neg | op.pre.neg_mask

    augmented.reverse()
    return Chain(
        steps=tuple(augmented),
        goal=goal,
        front_conditions=ConditionSet(vocab, carry, carry_neg),
    )


def verify_chain(chain: Chain, init: LogicalState) -> bool:
    """True iff executing every step in order from ``init`` satisfies each
    effective precondition and the final state satisfies the goal."""
    state = init
    for step in chain.steps:
        if not holds(state, step.effective_pre):
            return False
        state = apply_effects(state, step.base.eff)
    return holds(state, chain.goal)
