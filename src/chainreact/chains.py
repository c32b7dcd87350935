"""Robust chains: plans augmented by backward condition propagation.

Conditions are regressed from the goal through the plan, stopping at the
step whose effects create them; every step in between gains the condition
in its entry (pre) set, and in its continuation (run) set unless that
negates it.  Each step's own positive preconditions join the carried set,
so mid-plan achievements are ordered as well, not just goal atoms.  The reactive executive can then
never enter a step whose prerequisites a skipped step was supposed to
establish, and entering a step whose effective conditions hold is always
safe for the remainder of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .logic import ConditionSet, LogicalState, apply_effects, holds
from .planner import GroundOperator, Plan


class UnsupportedFeatureError(ValueError):
    """A chain was requested for a feature regression does not cover."""


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

    Walking from the last step to the first, the carried set holds every
    positive condition some later step (or the goal) needs that no step in
    between produces.  A step's extras are the carried conditions it does
    not itself add; its own positive preconditions then join the carry.
    No step deletes a carried condition: :class:`Plan` is sound, so each
    carried condition holds when the step that needs it runs.  A step's run
    condition leaves out the extras it negates itself, since it may run
    while they are false; its precondition negates none of them.  For a
    narrower goal, build from ``Plan(plan.steps, plan.init, narrower)``.
    Raises :class:`UnsupportedFeatureError` for negative goal literals
    (the kitchen goals are positive; regression over negations is out of
    scope).
    """
    goal = plan.goal
    vocab = goal.vocabulary
    if goal.neg_mask:
        raise UnsupportedFeatureError(
            "cannot build a chain for a goal with negative literals"
        )

    carry = goal.pos_mask
    augmented: list[AugmentedOperator] = []
    for op in reversed(plan.steps):
        extra = carry & ~op.eff.add_mask
        augmented.append(
            AugmentedOperator(
                base=op,
                effective_pre=ConditionSet(vocab, op.pre.pos_mask | extra, op.pre.neg_mask),
                effective_run=ConditionSet(
                    vocab, op.run.pos_mask | extra & ~op.run.neg_mask, op.run.neg_mask
                ),
            )
        )
        carry = extra | op.pre.pos_mask

    augmented.reverse()
    return Chain(
        steps=tuple(augmented),
        goal=goal,
        front_conditions=ConditionSet(vocab, carry),
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
