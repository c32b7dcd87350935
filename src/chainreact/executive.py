"""Reactive execution of a robust chain against the simulator.

Each tick the executive estimates the logical state, scans the chain from
the highest-priority step (the last) downward, and picks the first step
whose effective entry conditions hold, or stays with the current step while
its effective run conditions hold.  Selecting a different step preempts the
running primitive immediately.  Success is declared once the goal has held
in the estimate for a configurable streak of consecutive ticks, which
guards against single-tick perception noise; a streak of 1 reproduces the
bare loop.

The open loop (``run(..., open_loop=True)``) is the non-reactive baseline:
it runs the steps strictly in order, advancing on primitive completion
whether or not the step achieved anything.  Both share one tick loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .chains import Chain
from .kitchen import KitchenSim
from .logic import ConditionSet, LogicalState, _check_same_vocab
from .perception import PerceptionPipeline
from .planner import GroundedDomain, GroundOperator

ENTER_NEW = "enter_new"
CONTINUE_CURRENT = "continue_current"
NONE_ENTERABLE = "none_enterable"

DEFAULT_GOAL_STREAK = 3
DEFAULT_STUCK_AFTER = 10


@dataclass(frozen=True)
class Decision:
    selected: Optional[int]
    reason: str

    def __post_init__(self) -> None:
        if (self.selected is None) != (self.reason == NONE_ENTERABLE):
            raise ValueError("selected must be set iff a step was chosen")


def select_operator(
    chain: Chain, estimate: LogicalState, current: Optional[int]
) -> Decision:
    """Highest-priority-first selection.

    Scanning from the last step down: a non-current step is entered when
    its effective preconditions hold; the current step continues when its
    effective run conditions hold.  The first match wins.  The vocabulary
    is checked once per call; the scan then tests the condition masks
    directly, which is :func:`~chainreact.logic.holds` without its check.
    """
    _check_same_vocab(estimate.vocabulary, chain.goal.vocabulary)
    mask = estimate.mask
    steps = chain.steps
    for i in range(len(steps) - 1, -1, -1):
        step = steps[i]
        cond = step.effective_run if i == current else step.effective_pre
        if mask & cond.pos_mask == cond.pos_mask and not mask & cond.neg_mask:
            return Decision(i, CONTINUE_CURRENT if i == current else ENTER_NEW)
    return Decision(None, NONE_ENTERABLE)


def _meets(mask: int, cond: ConditionSet) -> bool:
    """:func:`~chainreact.logic.holds` on a raw mask whose vocabulary the
    caller has already checked against ``cond``'s."""
    return mask & cond.pos_mask == cond.pos_mask and not mask & cond.neg_mask


@dataclass(frozen=True)
class Disturbance:
    """A scripted world change with a one-shot trigger, as
    :func:`resolve_disturbances` reads it from a scenario.

    One trigger field is set: ``at_tick``; ``operators``, the indices of
    the ground operators whose start fires it; or ``bit``, the bit of an
    atom that fires it once the post-tick truth holds it.  ``kind`` is the
    change, as :meth:`~chainreact.kitchen.KitchenSim.apply_disturbance`
    reads it.
    Which disturbances have fired is the state of one run, not of this
    value, so one resolved tuple serves every trial.
    """

    kind: dict
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


def resolve_disturbances(
    specs: Sequence[dict], grounded: GroundedDomain, problems: list[str]
) -> tuple[Disturbance, ...]:
    """Resolve ``{"trigger": ..., "kind": ...}`` specs, already checked
    against the scenario schema, against ``grounded``.

    ``at_tick`` stays an int.  An operator name with arguments resolves to
    that ground operator; one without arguments to every ground operator of
    that schema.  A predicate must name an atom of the vocabulary.  A
    teleport must name a movable.  Whitespace inside names does not matter.
    Each name that resolves to nothing appends a problem with its field
    path to ``problems``."""
    out = []
    for i, spec in enumerate(specs):
        where = f"disturbances[{i}]"
        trigger, kind = spec["trigger"], spec["kind"]
        found: dict = {"at_tick": trigger.get("at_tick")}
        if "when_operator" in trigger:
            name = trigger["when_operator"]
            head, args = _parse_name(name)
            found["operators"] = frozenset(
                op.index for op in grounded.operators
                if op.schema.name == head and args in (None, op.bound_args)
            )
            if not found["operators"]:
                problems.append(
                    f"field '{where}.trigger.when_operator': unknown operator {name!r}"
                )
        elif "when_predicate" in trigger:
            name = trigger["when_predicate"]
            head, args = _parse_name(name)
            found["bit"] = grounded.vocabulary.bits.get((head, args or ()), 0)
            if not found["bit"]:
                problems.append(
                    f"field '{where}.trigger.when_predicate': unknown atom {name!r}"
                )
        if kind["kind"] == "teleport_object" and kind["object"] not in grounded.movables:
            problems.append(f"field '{where}.kind': unknown object {kind['object']!r}")
        out.append(Disturbance(kind, **found))
    return tuple(out)


def _parse_name(name: str) -> tuple[str, Optional[tuple[str, ...]]]:
    """Split ``"head(a, b)"`` into ``("head", ("a", "b"))``, stripping
    whitespace; a name without parentheses has ``None`` for its arguments."""
    if "(" not in name:
        return name, None
    head, rest = name.split("(", 1)
    return head, tuple(a.strip() for a in rest.rstrip(")").split(",") if a.strip())


@dataclass
class Outcome:
    status: str  # "succeeded" | "stuck" | "budget_exhausted"
    ticks: int
    recoveries: int = 0
    false_success: bool = False
    # one entry per primitive start: (tick, step index, operator name)
    history: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "succeeded"


TickCallback = Callable[[dict], None]


def _fire_disturbances(
    sim: KitchenSim,
    pending: list[Disturbance],
    tick: int,
    started: Optional[GroundOperator],
) -> list[str]:
    """Apply, in order, each pending disturbance whose trigger matches this
    tick, and drop it from ``pending``, the run's list of those not fired."""
    if not pending:
        return []
    # Only a predicate trigger reads the post-tick truth.
    truth = sim.eval_predicates().mask if any(d.bit for d in pending) else 0
    fired = [d for d in pending if d.matches(tick, started, truth)]
    for d in fired:
        sim.apply_disturbance(d.kind)
        pending.remove(d)
    return [d.kind["kind"] for d in fired]


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
    the disturbances due.  The reactive choice estimates the state, checks
    the goal streak and calls :func:`select_operator`.  With ``open_loop``
    the choice is the next step in order once the primitive ends; the
    estimate is the truth and no condition is checked.  After its last step
    the open loop ends succeeded or stuck on the truth, with a tick line
    that ``ticks`` does not count."""
    # Truth comes from the simulator and the estimate from the perception
    # pipeline; both must share the chain's vocabulary, checked once here
    # so the goal checks below read the masks directly.
    _check_same_vocab(sim.grounded.vocabulary, chain.goal.vocabulary)
    _check_same_vocab(perception.vocab, chain.goal.vocabulary)
    goal, steps = chain.goal, chain.steps
    pending = list(disturbances)
    current: Optional[int] = None  # active step index, if any
    last_entered: Optional[int] = None
    streak = 0  # consecutive ticks the estimate has met the goal
    none_streak = 0
    outcome = Outcome(status="budget_exhausted", ticks=max_ticks)

    for tick in range(max_ticks):
        truth = sim.eval_predicates()
        decision = step = None  # this tick's decision and the step it starts
        if open_loop:
            estimate = truth
            if sim.current is None:
                step = 0 if current is None else current + 1
                if step == len(steps):
                    outcome.status = "succeeded" if _meets(truth.mask, goal) else "stuck"
                    outcome.ticks = tick
                    break
        else:
            estimate = perception.estimate(truth)
            streak = streak + 1 if _meets(estimate.mask, goal) else 0
            if streak >= goal_streak:
                outcome.status = "succeeded"
                outcome.ticks = tick + 1
                outcome.false_success = not _meets(truth.mask, goal)
                break
            # While a streak confirms the goal, hold position: a running
            # primitive finishes its motion.
            if not streak:
                decision = select_operator(chain, estimate, current)
                if decision.selected is None:
                    none_streak += 1
                    if sim.current is not None:
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
                    if decision.reason == ENTER_NEW or sim.current is None:
                        step = decision.selected

        started = None
        if step is not None:
            if sim.current is not None:
                sim.abort_primitive()
            started = steps[step].base
            sim.start_primitive(started)
            outcome.history.append((tick, step, started.name))
            if last_entered is not None and step < last_entered:
                outcome.recoveries += 1
            last_entered = current = step
        prim = sim.tick() if sim.current is not None else None
        fired = _fire_disturbances(sim, pending, tick, started)
        _emit(chain, on_tick, tick, truth, estimate, decision,
              prim.phase if prim else "confirming" if streak else "idle", fired)
    else:  # the tick budget ran out
        return outcome

    # The tick that ends the episode writes its line without acting.
    _emit(chain, on_tick, tick, truth, estimate, decision,
          "goal_reached" if outcome.succeeded else "idle", [])
    return outcome


def _emit(chain, on_tick, tick, truth, estimate, decision, phase, fired) -> None:
    if on_tick is None:
        return
    selected = None if decision is None else decision.selected
    on_tick(
        {
            "tick": tick,
            "true_atoms": truth.sorted_names(),
            "estimated_atoms": estimate.sorted_names(),
            "selected_step": selected,
            "selected_operator": (
                None if selected is None else chain.steps[selected].base.name
            ),
            "reason": None if decision is None else decision.reason,
            "primitive_phase": phase,
            "disturbances_fired": fired,
        }
    )
