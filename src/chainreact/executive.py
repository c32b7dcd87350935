"""Reactive execution of a robust chain against the simulator.

Each tick the executive estimates the logical state as an int mask, whose
vocabulary ``run`` checks once, scans the chain from the highest-priority
step (the last) downward, and picks the first step whose effective entry
conditions hold, or stays with the current step while its effective run
conditions hold, a choice the chain keeps per truth mask and current step.
Selecting a different step preempts the running primitive at once.  Success
is declared once the goal has held in the estimate for a configurable
streak of ticks, which guards against single-tick perception noise; a
streak of 1 reproduces the bare loop.

The open loop (``run(..., open_loop=True)``) is the non-reactive baseline:
it runs the steps strictly in order, advancing on primitive completion
whether or not the step achieved anything.  Both share one tick loop,
which hands each tick's values to ``on_tick``, when given, to record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Callable, Optional, Sequence

from .chains import Chain
from .kitchen import KitchenSim
from .logic import _check_same_vocab, meets
from .perception import PerceptionPipeline
from .planner import GroundOperator

ENTER_NEW = "enter_new"
CONTINUE_CURRENT = "continue_current"
NONE_ENTERABLE = "none_enterable"

DEFAULT_GOAL_STREAK = 3
DEFAULT_STUCK_AFTER = 10


def select_operator(chain: Chain, mask: int, current: Optional[int]) -> Optional[int]:
    """Highest-priority-first selection on the estimate ``mask``: the index
    of the chosen step, or ``None`` when no step qualifies.

    Scanning from the last step down: a non-current step is entered when
    its effective preconditions hold; the current step continues when its
    effective run conditions hold.  The first match wins.  Each test is
    :func:`~chainreact.logic.meets` on the mask, whose vocabulary the
    caller has checked against the chain's, as :func:`run` does once; it is
    written inline because it runs once per step scanned.
    """
    steps = chain.steps
    for i in range(len(steps) - 1, -1, -1):
        step = steps[i]
        cond = step.effective_run if i == current else step.effective_pre
        if mask & cond.pos_mask == cond.pos_mask and not mask & cond.neg_mask:
            return i
    return None


@dataclass(frozen=True)
class Disturbance:
    """A scripted world change with a one-shot trigger, as
    :func:`~chainreact.harness.resolve_disturbances` reads it from a
    scenario.

    ``kind``, ``obj``, ``zone`` (``None`` for a random free zone) and
    ``extension`` are the change, the arguments of
    :meth:`~chainreact.kitchen.KitchenSim.apply_disturbance`.  One trigger
    field is set: ``at_tick``; ``operators``, the indices of the ground
    operators whose start fires it; or ``bit``, the bit of an atom that
    fires it once the post-tick truth holds it.
    Which disturbances have fired is the state of one run, not of this
    value, so one resolved tuple serves every trial.
    """

    kind: str
    obj: Optional[str] = None
    zone: Optional[int] = None
    extension: float = 0.0
    at_tick: Optional[int] = None
    operators: frozenset[int] = frozenset()
    bit: int = 0

    def matches(
        self, tick: int, started: Optional[GroundOperator], truth: int
    ) -> bool:
        """Whether the trigger fires this tick, given the ground operator
        started this tick, if any, and the post-tick truth mask (read only
        by a predicate trigger)."""
        if self.at_tick is not None:
            return tick == self.at_tick
        if self.bit:
            return truth & self.bit != 0
        return started is not None and started.index in self.operators


@dataclass
class Outcome:
    status: str  # "succeeded" | "stuck" | "budget_exhausted" | "no_plan"
    ticks: int
    recoveries: int = 0
    false_success: bool = False
    # one entry per primitive start: (tick, step index, operator name)
    history: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "succeeded"


# (tick, truth mask, estimate mask, selected step, reason, phase, fired kinds)
TickCallback = Callable[..., None]


def run(
    sim: KitchenSim,
    perception: PerceptionPipeline,
    chain: Chain,
    max_ticks: int,
    goal_streak: int = DEFAULT_GOAL_STREAK,
    stuck_after: int = DEFAULT_STUCK_AFTER,
    disturbances: Sequence[Disturbance] = (),
    on_tick: Optional[TickCallback] = None,
    open_loop: bool = False,
) -> Outcome:
    """Run one episode until the goal, a dead end, or the tick budget ends it.

    Each tick reads the truth, makes the executive's choice, starts the
    chosen step if there is one, advances the running primitive and fires
    the disturbances due, checked only on a tick that starts one of a
    pending trigger's operators, is a pending ``at_tick`` or whose truth
    holds a pending trigger's atom.  The reactive choice estimates the
    state, checks the goal streak and selects again only when the estimate
    mask or the current step has changed, from ``chain.selections`` when the
    estimate equals the truth: that memo holds truth masks only.  With
    ``open_loop`` the choice is the next step in order once the primitive
    ends; the estimate is the truth and no condition is checked.  After its
    last step the open loop ends succeeded or stuck on the truth, in a tick
    that ``ticks`` does not count; ``on_tick`` gets that tick's values too.
    Of ``sim`` it reads only ``grounded.vocabulary``, ``current``,
    ``eval_predicates``, ``start_primitive``, ``abort_primitive``, ``tick``
    (whose result's ``phase`` only ``on_tick`` needs) and
    ``apply_disturbance``, so any simulator with those members can drive it."""
    # Truth comes from the simulator and the estimate from the perception
    # pipeline; both must share the chain's vocabulary, checked once here
    # so the goal checks and select_operator below read the masks directly.
    _check_same_vocab(sim.grounded.vocabulary, chain.goal.vocabulary)
    _check_same_vocab(perception.vocab, chain.goal.vocabulary)
    goal, steps, selections = chain.goal, chain.steps, chain.selections
    pending = list(disturbances)
    # What a pending trigger can match; a tick, once past, never recurs.
    watch_bits = reduce(or_, (d.bit for d in pending), 0)
    watch_ops = set().union(*(d.operators for d in pending))
    watch_ticks = {d.at_tick for d in pending}
    current: Optional[int] = None  # active step index, if any
    last_entered: Optional[int] = None
    streak = 0  # consecutive ticks the estimate has met the goal
    none_streak = 0
    key = choice = None  # the last (estimate mask, current step) and its selection
    outcome = Outcome(status="budget_exhausted", ticks=max_ticks)

    for tick in range(max_ticks):
        truth = sim.eval_predicates()
        selected = reason = step = None  # this tick's choice and the step it starts
        if open_loop:
            estimate = truth
            if sim.current is None:
                step = 0 if current is None else current + 1
                if step == len(steps):
                    outcome.status = "succeeded" if meets(truth, goal) else "stuck"
                    outcome.ticks = tick
                    break
        else:
            estimate = perception.estimate(truth)
            streak = streak + 1 if meets(estimate, goal) else 0
            if streak >= goal_streak:
                outcome.status = "succeeded"
                outcome.ticks = tick + 1
                outcome.false_success = not meets(truth, goal)
                break
            # While a streak confirms the goal, hold position: a running
            # primitive finishes its motion.
            if not streak:
                if key != (estimate, current):
                    key = (estimate, current)
                    if estimate != truth:
                        choice = select_operator(chain, estimate, current)
                    elif key in selections:
                        choice = selections[key]
                    else:
                        choice = selections[key] = select_operator(chain, estimate, current)
                selected = choice
                reason = (
                    NONE_ENTERABLE if selected is None
                    else CONTINUE_CURRENT if selected == current else ENTER_NEW
                )
                if selected is None:
                    none_streak += 1
                    sim.abort_primitive()
                    current = None
                    if none_streak >= stuck_after:
                        outcome.status = "stuck"
                        outcome.ticks = tick + 1
                        break
                else:
                    none_streak = 0
                    # Enter a new step, or retry the current one once its
                    # primitive has ended (success or failure).
                    if reason == ENTER_NEW or sim.current is None:
                        step = selected

        started = None
        if step is not None:
            started = steps[step].base
            sim.start_primitive(started)
            outcome.history.append((tick, step, started.name))
            if last_entered is not None and step < last_entered:
                outcome.recoveries += 1
            last_entered = current = step
        prim = sim.tick() if sim.current is not None else None
        fired, after = [], sim.eval_predicates() if watch_bits else 0
        if pending and (tick in watch_ticks or after & watch_bits
                        or started is not None and started.index in watch_ops):
            # Apply, in order, each pending disturbance due this tick.
            due = [d for d in pending if d.matches(tick, started, after)]
            for d in due:
                sim.apply_disturbance(d.kind, d.obj, d.zone, d.extension)
                pending.remove(d)
            fired = [d.kind for d in due]
            watch_bits = reduce(or_, (d.bit for d in pending), 0)
            watch_ops = set().union(*(d.operators for d in pending))
        if on_tick is not None:
            phase = prim.phase if prim else "confirming" if streak else "idle"
            on_tick(tick, truth, estimate, selected, reason, phase, fired)
    else:  # the tick budget ran out
        return outcome

    # The tick that ends the episode reports without acting.
    if on_tick is not None:
        phase = "goal_reached" if outcome.succeeded else "idle"
        on_tick(tick, truth, estimate, selected, reason, phase, [])
    return outcome

