"""Reactive execution of a robust chain against the simulator.

Each tick the executive estimates the logical state, scans the chain from
the highest-priority step (the last) downward, and picks the first step
whose effective entry conditions hold, or stays with the current step while
its effective run conditions hold.  Selecting a different step preempts the
running primitive immediately.  Success is declared once the goal has held
in the estimate for a configurable streak of consecutive ticks, which
guards against single-tick perception noise; a streak of 1 reproduces the
bare loop.

``run_open_loop`` is the non-reactive baseline: it executes the chain
steps strictly in order, advancing on primitive completion whether or not
the step achieved anything, and never re-selects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .chains import Chain, _atom_from_name, _parse_name
from .kitchen import KitchenSim
from .logic import ConditionSet, LogicalState, Vocabulary, _check_same_vocab
from .perception import PerceptionPipeline

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


@dataclass
class Disturbance:
    """A scripted world change with a one-shot trigger.

    trigger: {"at_tick": int} or {"when_operator": "name" | "name(args)"}
             or {"when_predicate": "atom"}
    kind:    {"kind": "teleport_object", "object": o, "destination": ...}
             or {"kind": "set_drawer", "extension": x}
             or {"kind": "detach_gripper"}

    The trigger is resolved once.  ``at_tick`` becomes an int.  An operator
    name with arguments must equal the started ground operator's name; one
    without arguments matches any binding of that schema.  A predicate
    becomes the bit of its atom in the vocabulary of the first truth state
    it is checked against.  Names are read by the parser that scenario
    validation uses, so whitespace inside them does not matter.
    """

    trigger: dict
    kind: dict
    fired: bool = False
    at_tick: Optional[int] = field(default=None, init=False)
    operator: Optional[str] = field(default=None, init=False)  # ground name
    schema: Optional[str] = field(default=None, init=False)  # any binding
    predicate: Optional[str] = field(default=None, init=False)
    _vocab: Optional[Vocabulary] = field(default=None, init=False, repr=False)
    _bit: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if "at_tick" in self.trigger:
            self.at_tick = int(self.trigger["at_tick"])
        elif "when_operator" in self.trigger:
            head, args = _parse_name(str(self.trigger["when_operator"]))
            if args is None:
                self.schema = head
            else:
                self.operator = f"{head}({', '.join(args)})" if args else head
        elif "when_predicate" in self.trigger:
            self.predicate = str(self.trigger["when_predicate"])
        else:
            raise ValueError(f"unknown trigger {self.trigger!r}")

    def matches(
        self, tick: int, started_op: Optional[str], truth: Optional[LogicalState]
    ) -> bool:
        """Whether the trigger fires this tick; ``truth`` is read only by a
        predicate trigger."""
        if self.fired:
            return False
        if self.at_tick is not None:
            return tick == self.at_tick
        if self.predicate is None:
            return started_op is not None and (
                started_op == self.operator
                or started_op.split("(", 1)[0] == self.schema
            )
        vocab = truth.vocabulary
        if self._vocab is not vocab:
            self._bit = 1 << vocab.id_of(_atom_from_name(vocab, self.predicate))
            self._vocab = vocab
        return truth.mask & self._bit != 0


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
    disturbances: Sequence[Disturbance],
    tick: int,
    started_op: Optional[str],
) -> list[str]:
    fired = []
    if not disturbances:
        return fired
    # Only a predicate trigger still armed reads the post-tick truth.
    truth = None
    if any(d.predicate is not None and not d.fired for d in disturbances):
        truth = sim.eval_predicates()
    for d in disturbances:
        if d.matches(tick, started_op, truth):
            sim.apply_disturbance(d.kind)
            d.fired = True
            fired.append(d.kind["kind"])
    return fired


def run(
    sim: KitchenSim,
    perception: PerceptionPipeline,
    chain: Chain,
    max_ticks: int,
    goal_streak: int = DEFAULT_GOAL_STREAK,
    stuck_after: int = DEFAULT_STUCK_AFTER,
    disturbances: Sequence[Disturbance] = (),
    on_tick: Optional[TickCallback] = None,
) -> Outcome:
    """Run the reactive loop until the goal streak, a dead end, or the
    tick budget ends the episode."""
    # Truth comes from the simulator and the estimate from the perception
    # pipeline; both must share the chain's vocabulary, checked once here
    # so the goal checks below read the masks directly.
    _check_same_vocab(sim.grounded.vocabulary, chain.goal.vocabulary)
    _check_same_vocab(perception.vocab, chain.goal.vocabulary)
    goal = chain.goal
    current: Optional[int] = None  # active step index, if any
    streak = 0  # consecutive ticks the estimate has met the goal
    last_entered: Optional[int] = None
    none_streak = 0
    outcome = Outcome(status="budget_exhausted", ticks=max_ticks)

    for tick in range(max_ticks):
        truth = sim.eval_predicates()
        estimate = perception.estimate(truth)

        if _meets(estimate.mask, goal):
            streak += 1
        else:
            streak = 0
        if streak >= goal_streak:
            outcome.status = "succeeded"
            outcome.ticks = tick + 1
            outcome.false_success = not _meets(truth.mask, goal)
            _emit(chain, on_tick, tick, truth, estimate, None, "goal_reached", [])
            return outcome
        if streak > 0:
            # The estimate says the goal holds; hold position while the
            # streak confirms it.  A running primitive finishes its motion.
            prim = sim.tick() if sim.current is not None else None
            fired = _fire_disturbances(sim, disturbances, tick, None)
            _emit(chain, on_tick, tick, truth, estimate, None,
                  prim.phase if prim else "confirming", fired)
            continue

        decision = select_operator(chain, estimate, current)
        started_op: Optional[str] = None
        prim = None

        if decision.reason == NONE_ENTERABLE:
            none_streak += 1
            if sim.current is not None:
                sim.abort_primitive()
            current = None
            if none_streak >= stuck_after:
                outcome.status = "stuck"
                outcome.ticks = tick + 1
                _emit(chain, on_tick, tick, truth, estimate, decision, "idle", [])
                return outcome
        else:
            none_streak = 0
            idx = decision.selected
            if decision.reason == ENTER_NEW:
                if sim.current is not None:
                    sim.abort_primitive()
                sim.start_primitive(chain.steps[idx].base)
                started_op = chain.steps[idx].base.name
                outcome.history.append((tick, idx, started_op))
                if last_entered is not None and idx < last_entered:
                    outcome.recoveries += 1
                last_entered = idx
                current = idx
            elif sim.current is None:
                # The primitive ended (success or failure) but this step is
                # still the best choice: dispatch it again (retry).
                sim.start_primitive(chain.steps[idx].base)
                started_op = chain.steps[idx].base.name
                outcome.history.append((tick, idx, started_op))
            prim = sim.tick()

        fired = _fire_disturbances(sim, disturbances, tick, started_op)
        _emit(chain, on_tick, tick, truth, estimate, decision,
              prim.phase if prim else "idle", fired)

    return outcome


def run_open_loop(
    sim: KitchenSim,
    chain: Chain,
    max_ticks: int,
    disturbances: Sequence[Disturbance] = (),
    on_tick: Optional[TickCallback] = None,
) -> Outcome:
    """Execute the chain strictly in order, advancing on completion, never
    checking conditions and never re-selecting.  Ends stuck if the goal is
    untrue after the last step."""
    _check_same_vocab(sim.grounded.vocabulary, chain.goal.vocabulary)
    outcome = Outcome(status="budget_exhausted", ticks=max_ticks)
    step_iter = iter(range(len(chain.steps)))
    idx: Optional[int] = None

    for tick in range(max_ticks):
        truth = sim.eval_predicates()
        started_op: Optional[str] = None
        if sim.current is None:
            idx = next(step_iter, None)
            if idx is None:
                done = _meets(truth.mask, chain.goal)
                outcome.status = "succeeded" if done else "stuck"
                outcome.ticks = tick
                _emit(chain, on_tick, tick, truth, truth, None,
                      "goal_reached" if done else "idle", [])
                return outcome
            sim.start_primitive(chain.steps[idx].base)
            started_op = chain.steps[idx].base.name
            outcome.history.append((tick, idx, started_op))
        prim = sim.tick()
        fired = _fire_disturbances(sim, disturbances, tick, started_op)
        _emit(chain, on_tick, tick, truth, truth, None,
              prim.phase if prim else "idle", fired)

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
