"""In-memory spans recorded by wrappers around chainreact's public functions.

A span is the list ``[name, start, end, parent, info]``: ``start`` and
``end`` are ``time.perf_counter()`` readings, ``parent`` is the index of the
enclosing span in the same list (-1 for a root) and ``info`` is a small
value taken from the wrapped call's result (ticks, expansions, ...), or None.

Wrappers are installed on the attribute the caller looks up (for example
``chainreact.harness.plan``, which ``run_trial`` calls), return exactly what
the wrapped function returns, and are removed again on exit.  A target that
no longer exists is reported as absent instead of failing the run.

Pool workers forked while the wrappers are installed inherit them.  A worker
sends each trial's spans home on the returned record, under ``SHIPPED``; the
parent-side wrapper of ``run_trials`` takes them off again and adds them to
the parent's list as trial roots.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

SHIPPED = "_perfbench_spans"

TRIAL = "harness.run_trial"
EXECUTIVES = ("executive.run", "executive.run_open_loop")
LOAD = "harness.load_scenario"
RUN_TRIALS = "harness.run_trials"


class Tracer:
    """Holds the spans of the current measurement and the open-span stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pid = os.getpid()

    def clear(self) -> None:
        # Cleared in place: the installed wrappers hold these lists.
        del self.spans[:]
        del self.stack[:]

    def adopt(self, shipped: list[list]) -> None:
        """Append spans sent by a worker, keeping their relative parents."""
        base = len(self.spans)
        for name, start, end, parent, info in shipped:
            self.spans.append(
                [name, start, end, parent + base if parent >= 0 else -1, info]
            )


def _wrap(tracer: Tracer, name: str, fn, info=None):
    spans, stack = tracer.spans, tracer.stack

    def wrapper(*args, **kwargs):
        index = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        spans.append(span)
        stack.append(index)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        if info is not None:
            try:
                span[4] = info(tracer, index, result, args, kwargs)
            except Exception:  # a changed result shape loses the count, not the run
                span[4] = None
        return result

    wrapper.__wrapped__ = fn
    return wrapper


# -- info hooks: read a count off a call's result ------------------------------


def _ticks(tracer, index, outcome, args, kwargs):
    return outcome.ticks


def _operators(tracer, index, grounded, args, kwargs):
    return len(grounded.operators)


def _plan_info(tracer, index, result, args, kwargs):
    grounded = args[0]
    init = kwargs.get("init")
    goal = kwargs.get("goal")
    init = grounded.init if init is None else init
    goal = grounded.goal if goal is None else goal
    query = (
        grounded.problem.name, init.mask, goal.pos_mask, goal.neg_mask,
        bool(kwargs.get("optimal", False)),
    )
    return (result.expansions, result.solved, query)


def _fired(tracer, index, matched, args, kwargs):
    return bool(matched)


def _ship_trial_spans(tracer, index, record, args, kwargs):
    """In a forked pool worker, move this trial's spans onto the record."""
    if os.getpid() == tracer.pid:
        return None
    spans = tracer.spans
    shipped = [
        [name, start, end, parent - index if parent >= index else -1, info]
        for name, start, end, parent, info in spans[index:]
    ]
    del spans[index:]
    vars(record)[SHIPPED] = shipped
    return None


def _adopt_worker_spans(tracer, index, result, args, kwargs):
    """Take worker spans off the records run_trials returns.

    Returns (jobs, summed in-trial seconds) of this call."""
    in_trial = 0.0
    for record in result[1]:
        shipped = vars(record).pop(SHIPPED, None)
        if shipped:
            in_trial += shipped[0][2] - shipped[0][1]
            tracer.adopt(shipped)
    return (kwargs.get("jobs", 1), in_trial)


# -- targets --------------------------------------------------------------------

# (module, attribute path, span name, info hook).  The untraced end-to-end run
# installs only TIMING_TARGETS: a few timestamps per trial.
TIMING_TARGETS = (
    ("chainreact.cli", "load_scenario", LOAD, None),
    ("chainreact.cli", "run_trials", RUN_TRIALS, _adopt_worker_spans),
    ("chainreact.harness", "run_trial", TRIAL, _ship_trial_spans),
    ("chainreact.executive", "run", "executive.run", _ticks),
    ("chainreact.executive", "run_open_loop", "executive.run_open_loop", _ticks),
)

LAYER_TARGETS = TIMING_TARGETS + (
    ("chainreact.cli", "main", "cli", None),
    ("chainreact.harness", "load_scenario", LOAD, None),
    ("chainreact.harness", "load_domain_file", "lang.load_domain_file", None),
    ("chainreact.harness", "load_problem_file", "lang.load_problem_file", None),
    ("chainreact.harness", "ground", "planner.ground", _operators),
    ("chainreact.harness", "plan", "planner.plan", _plan_info),
    ("chainreact.harness", "build_chain", "chains.build_chain", None),
    ("chainreact.harness", "sample_initial", "kitchen.sample_initial", None),
    ("chainreact.kitchen", "KitchenSim.eval_predicates", "kitchen.eval_predicates", None),
    ("chainreact.kitchen", "KitchenSim.tick", "kitchen.tick", None),
    ("chainreact.kitchen", "KitchenSim.start_primitive", "kitchen.start_primitive", None),
    ("chainreact.kitchen", "KitchenSim.apply_disturbance", "kitchen.apply_disturbance", None),
    ("chainreact.perception", "PerceptionPipeline.estimate", "perception.estimate", None),
    ("chainreact.executive", "select_operator", "executive.select_operator", None),
    ("chainreact.executive", "Disturbance.matches", "executive.Disturbance.matches", _fired),
)

ON_TICK = "harness.on_tick"

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYER_TARGETS)) + (ON_TICK,)


class Instrument:
    """Context manager that installs wrappers for ``targets`` and removes them.

    ``absent`` lists the span names whose target could not be found."""

    def __init__(self, tracer: Tracer, targets, wrap_on_tick: bool = False):
        self.tracer = tracer
        self.targets = targets
        self.wrap_on_tick = wrap_on_tick
        self.absent: set[str] = set()
        self._undo: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Instrument":
        missing, installed = set(), set()
        for module_name, path, name, info in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.add(name)
                continue
            if not callable(fn):
                missing.add(name)
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else fn
            if name in EXECUTIVES and self.wrap_on_tick:
                fn = self._with_on_tick(fn)
            setattr(owner, attr, _wrap(self.tracer, name, fn, info))
            self._undo.append((owner, attr, original, own))
            installed.add(name)
        self.absent = missing - installed
        return self

    def _with_on_tick(self, fn):
        tracer = self.tracer

        def run_with_wrapped_callback(*args, **kwargs):
            if kwargs.get("on_tick") is not None:
                kwargs["on_tick"] = _wrap(tracer, ON_TICK, kwargs["on_tick"])
            return fn(*args, **kwargs)

        return run_with_wrapped_callback

    def __exit__(self, *exc) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


# -- reading spans --------------------------------------------------------------


def trial_timings(spans: list[list]) -> list[tuple[float, float, int]]:
    """Per trial root: (time to first action, executive seconds, executive ticks).

    The first action is the executive's start; a trial that never reaches the
    executive (no plan) counts its whole duration."""
    out: dict[int, list] = {}
    for index, (name, start, end, parent, info) in enumerate(spans):
        if name == TRIAL:
            out[index] = [end - start, 0.0, 0, start, False]
        elif name in EXECUTIVES and parent in out:
            row = out[parent]
            if not row[4]:
                row[0] = start - row[3]
                row[4] = True
            row[1] += end - start
            row[2] += info or 0
    return [(first, exec_s, ticks) for first, exec_s, ticks, _, _ in out.values()]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are nested and sequential (one thread), so the covered part is
    the sum of the children's durations."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, info in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def trial_ids(spans: list[list]) -> list[int]:
    """The index of each span's trial root, or -1 outside any trial."""
    ids = []
    for index, (name, _, _, parent, _) in enumerate(spans):
        if name == TRIAL:
            ids.append(index)
        else:
            ids.append(ids[parent] if parent >= 0 else -1)
    return ids


def max_trial_residual(spans: list[list], selfs: list[float]) -> float:
    """Largest gap between a trial's wall time and its spans' summed self times."""
    ids = trial_ids(spans)
    sums: dict[int, float] = defaultdict(float)
    for trial, value in zip(ids, selfs):
        if trial >= 0:
            sums[trial] += value
    return max(
        (abs(total - (spans[t][2] - spans[t][1])) for t, total in sums.items()),
        default=0.0,
    )


def layer_totals(spans: list[list], selfs: list[float]) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds]."""
    totals: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for (name, start, end, _, _), own in zip(spans, selfs):
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own
    return totals


def write_spans(path, spans: list[list]) -> None:
    """One JSON object per line: id, name, start, end, parent, trial."""
    ids = trial_ids(spans)
    with open(path, "w", encoding="utf-8") as out:
        for index, (name, start, end, parent, _) in enumerate(spans):
            out.write(
                json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "trial": ids[index]}
                )
                + "\n"
            )


def span_cost(samples: int = 50_000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = _wrap(tracer, "noop", noop)
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        for _ in range(samples):
            noop()
        bare = perf_counter() - start
        tracer.clear()
        start = perf_counter()
        for _ in range(samples):
            wrapped()
        best = min(best, (perf_counter() - start - bare) / samples)
    tracer.clear()
    return max(best, 0.0)
