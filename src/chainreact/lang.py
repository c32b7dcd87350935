"""Domain definition language: a PDDL subset with run-conditions.

Files use s-expression syntax (``.dpdl`` for domains, ``.dprob`` for
problems).  Two extensions over plain STRIPS/PDDL: a ``:runcondition``
clause per action, and a ``:binding`` clause naming the simulator primitive
that realises the action.  ``;`` starts a comment.  Keywords are
case-insensitive, symbols are case-sensitive.

Parsing is total: malformed input produces :class:`Diagnostic` records with
line/column positions instead of exceptions.  The grammar is documented in
``docs/domain-format.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .logic import MAX_ARITY, PredicateSchema

# --------------------------------------------------------------------------
# Data model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftedAtom:
    """Predicate applied to variables (``?x``) and/or constant symbols."""

    name: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return f"({self.name})"
        return f"({self.name} {' '.join(self.args)})"


@dataclass(frozen=True)
class LiftedLiteral:
    atom: LiftedAtom
    positive: bool = True


@dataclass(frozen=True)
class OperatorSchema:
    """Parameterised action: its precondition, run condition and effect are
    literal sets.  ``run`` is ``pre`` itself for an action without a
    ``:runcondition``; in ``eff`` positive literals add, negated ones delete."""

    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type)
    pre: frozenset[LiftedLiteral]
    run: frozenset[LiftedLiteral]
    eff: frozenset[LiftedLiteral]
    binding: str = ""


@dataclass
class DomainDefinition:
    name: str
    # type name -> parent type name (None for root types)
    types: dict[str, Optional[str]] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)  # symbol -> type
    predicates: list[PredicateSchema] = field(default_factory=list)
    operators: list[OperatorSchema] = field(default_factory=list)

    def predicate(self, name: str) -> Optional[PredicateSchema]:
        for p in self.predicates:
            if p.name == name:
                return p
        return None

    def is_subtype(self, child: str, ancestor: str) -> bool:
        seen: set[str] = set()
        cur: Optional[str] = child
        while cur is not None and cur not in seen:
            if cur == ancestor:
                return True
            seen.add(cur)
            cur = self.types.get(cur)
        return False


@dataclass
class ProblemDefinition:
    name: str
    objects: dict[str, str] = field(default_factory=dict)  # symbol -> type
    init: frozenset[LiftedAtom] = frozenset()  # fully ground atoms
    goal: frozenset[LiftedLiteral] = frozenset()  # fully ground literals


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str
    code: str = ""

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


@dataclass
class ParseResult:
    """Either a value or a non-empty list of error diagnostics."""

    value: object = None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.value is not None and not self.diagnostics


# --------------------------------------------------------------------------
# Tokenizer and s-expression reader
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s();]+")


class _Node:
    """Either a symbol leaf or a parenthesised list, with a source position."""

    __slots__ = ("items", "text", "line", "col")

    def __init__(self, line: int, col: int, text: str | None = None, items=None):
        self.text = text
        self.items = items
        self.line = line
        self.col = col

    @property
    def is_list(self) -> bool:
        return self.items is not None


def _read_sexprs(source: str, diags: list[Diagnostic]) -> list[_Node]:
    """Parse all top-level s-expressions; report unbalanced parentheses."""
    top: list[_Node] = []
    stack: list[_Node] = []
    for line_no, line in enumerate(source.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line.split(";", 1)[0]):
            text, col = m.group(), m.start() + 1
            if text == "(":
                node = _Node(line_no, col, items=[])
                (stack[-1].items if stack else top).append(node)
                stack.append(node)
            elif text == ")":
                if not stack:
                    _err(diags, _Node(line_no, col), "unmatched closing parenthesis", "unbalanced-parens")
                    return top
                stack.pop()
            else:
                (stack[-1].items if stack else top).append(_Node(line_no, col, text=text))
    if stack:
        _err(diags, stack[-1], "unclosed parenthesis", "unbalanced-parens")
    return top


def _err(diags: list[Diagnostic], node: _Node, message: str, code: str) -> None:
    diags.append(Diagnostic(node.line, node.col, message, code))


def _kw(node: _Node) -> str:
    """Lower-cased symbol text, or '' for lists."""
    return node.text.lower() if node.text else ""


def _parse_typed_list(
    nodes: list[_Node],
    diags: list[Diagnostic],
    what: str,
    require_type: bool,
) -> list[tuple[str, Optional[str], _Node]]:
    """Parse ``a b - t c - u`` style typed name lists.

    Returns (name, type-or-None, node) triples.  With ``require_type`` an
    untyped trailing group is reported as an error.
    """
    out: list[tuple[str, Optional[str], _Node]] = []
    pending: list[_Node] = []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if node.is_list:
            _err(diags, node, f"unexpected list in {what}", "malformed")
            i += 1
            continue
        if node.text == "-":
            if not pending or i + 1 >= len(nodes) or nodes[i + 1].is_list:
                _err(diags, node, f"dangling '-' in {what}", "malformed")
                i += 1
                continue
            type_name = nodes[i + 1].text
            for p in pending:
                out.append((p.text, type_name, p))
            pending = []
            i += 2
        else:
            pending.append(node)
            i += 1
    for p in pending:
        if require_type:
            _err(diags, p, f"{p.text!r} in {what} has no declared type", "missing-type")
        out.append((p.text, None, p))
    return out


# --------------------------------------------------------------------------
# Domain and problem parsing
# --------------------------------------------------------------------------


def parse_domain(source: str) -> ParseResult:
    """Parse and validate a domain definition.

    Returns a :class:`ParseResult` whose value is a
    :class:`DomainDefinition` on success; on failure ``value`` is ``None``
    and ``diagnostics`` holds at least one error.
    """

    def begin(name: str, diags: list[Diagnostic]):
        domain = DomainDefinition(name=name)
        return domain, {
            ":types": lambda section, body: _parse_types(body, domain, diags),
            ":constants": lambda section, body: _declare(
                body, domain, domain.constants, "constant", diags
            ),
            ":predicates": lambda section, body: _parse_predicates(body, domain, diags),
            ":action": lambda section, body: _parse_action(section, body, domain, diags),
        }

    return _parse(source, "domain", begin)


def parse_problem(source: str, domain: DomainDefinition) -> ParseResult:
    """Parse and validate a problem against an already validated domain."""

    def begin(name: str, diags: list[Diagnostic]):
        problem = ProblemDefinition(name=name)

        def symbols() -> dict[str, str]:
            return {**domain.constants, **problem.objects}

        def target(section: _Node, body: list[_Node]) -> None:
            if len(body) != 1 or body[0].is_list:
                _err(diags, section, "(:domain NAME) expects one name", "malformed")
                return
            if body[0].text != domain.name:
                _err(diags, body[0], f"problem targets domain {body[0].text!r}, loaded domain is {domain.name!r}", "wrong-domain")

        def init(section: _Node, body: list[_Node]) -> None:
            known = symbols()
            atoms = [_parse_atom(item, domain, known, diags) for item in body]
            problem.init |= {atom for atom in atoms if atom is not None}

        def goal(section: _Node, body: list[_Node]) -> None:
            if len(body) != 1:
                _err(diags, section, "(:goal ...) expects one condition form", "malformed")
                return
            got = _parse_literals(body[0], domain, symbols(), diags)
            if got is not None:
                problem.goal = got

        return problem, {
            ":domain": target,
            ":objects": lambda section, body: _declare(
                body, domain, problem.objects, "object", diags
            ),
            ":init": init,
            ":goal": goal,
        }

    return _parse(source, "problem", begin)


def _parse(source: str, kind: str, begin) -> ParseResult:
    """Read one ``(define (KIND NAME) (:section ...) ...)`` form, with the
    totality guard: an exception becomes an ``internal`` diagnostic.

    ``begin(name, diags)`` returns the value under construction and a map
    from section keyword to a handler, called as ``handler(section, body)``
    for each section in source order.  A second ``:domain`` or ``:goal``
    section is a ``duplicate-name`` error; other repeated sections merge.
    """
    diags: list[Diagnostic] = []
    try:
        value = _parse_define(source, kind, begin, diags)
    except Exception as exc:  # totality guard for malformed input
        diags.append(Diagnostic(1, 1, f"internal parse failure: {exc}", "internal"))
        value = None
    return ParseResult(None if diags else value, diags)


def _parse_define(source: str, kind: str, begin, diags: list[Diagnostic]) -> object:
    top = _read_sexprs(source, diags)
    if diags:
        return None
    if len(top) != 1 or not top[0].is_list:
        pos = top[0] if top else _Node(1, 1, text="")
        _err(diags, pos, "expected a single (define ...) form", "malformed")
        return None
    form = top[0].items
    if not form or _kw(form[0]) != "define":
        _err(diags, top[0], f"expected (define ({kind} ...) ...)", "malformed")
        return None
    header = form[1].items if len(form) > 1 and form[1].is_list else []
    if len(header) != 2 or _kw(header[0]) != kind or header[1].is_list:
        _err(diags, top[0], f"missing ({kind} NAME) header", "missing-name")
        return None
    value, handlers = begin(header[1].text, diags)
    seen: set[str] = set()
    for section in form[2:]:
        if not section.is_list or not section.items or section.items[0].is_list:
            _err(diags, section, "expected a (:section ...) form", "malformed")
            continue
        key = _kw(section.items[0])
        handler = handlers.get(key)
        if handler is None:
            _err(diags, section.items[0], f"unknown section keyword {section.items[0].text!r}", "unknown-section")
        elif key in seen and key in (":domain", ":goal"):
            _err(diags, section.items[0], f"section {key} repeated in {kind} {header[1].text!r}", "duplicate-name")
        else:
            seen.add(key)
            handler(section, section.items[1:])
    return value


def _parse_types(body: list[_Node], domain: DomainDefinition, diags: list[Diagnostic]) -> None:
    for name, parent, node in _parse_typed_list(body, diags, ":types", require_type=False):
        if name in domain.types:
            _err(diags, node, f"type {name!r} declared twice", "duplicate-name")
            continue
        domain.types[name] = parent
    # A parent used but never declared becomes a root type.
    for parent in list(domain.types.values()):
        if parent is not None and parent not in domain.types:
            domain.types[parent] = None


def _declare(
    body: list[_Node],
    domain: DomainDefinition,
    table: dict[str, str],
    noun: str,
    diags: list[Diagnostic],
) -> None:
    """Add typed ``:constants`` or ``:objects`` symbols to ``table``."""
    for name, type_name, node in _parse_typed_list(body, diags, f":{noun}s", require_type=True):
        if type_name is None:
            continue
        if type_name not in domain.types:
            _err(diags, node, f"{noun} {name!r} has undeclared type {type_name!r}", "undeclared-type")
        elif name in table or name in domain.constants:
            _err(diags, node, f"{noun} {name!r} declared twice", "duplicate-name")
        elif name.startswith("?"):
            _err(diags, node, f"{noun} {name!r} must not start with '?'", "malformed")
        else:
            table[name] = type_name


def _parse_params(
    nodes: list[_Node], domain: DomainDefinition, diags: list[Diagnostic], owner: str
) -> Optional[list[tuple[str, str]]]:
    """A ``?var - type`` parameter list of a predicate or an action, as
    (variable, type) pairs; ``None`` once any parameter is reported.  Every
    bad parameter is reported: a name without '?', a missing type, or a
    type not declared."""
    params, ok = [], True
    for var, type_name, node in _parse_typed_list(nodes, diags, f"{owner} parameters", require_type=True):
        if not var.startswith("?"):
            _err(diags, node, f"parameter {var!r} of {owner} must start with '?'", "malformed")
            ok = False
        if type_name is None:
            ok = False
        elif type_name not in domain.types:
            _err(diags, node, f"parameter type {type_name!r} is not declared", "undeclared-type")
            ok = False
        params.append((var, type_name))
    return params if ok else None


def _parse_predicates(body: list[_Node], domain: DomainDefinition, diags: list[Diagnostic]) -> None:
    for decl in body:
        if not decl.is_list or not decl.items or decl.items[0].is_list:
            _err(diags, decl, "predicate declaration must be (name ?v - type ...)", "malformed")
            continue
        name = decl.items[0].text
        if domain.predicate(name) is not None:
            _err(diags, decl.items[0], f"predicate {name!r} declared twice", "duplicate-name")
            continue
        params = _parse_params(decl.items[1:], domain, diags, f"predicate {name!r}")
        if params is None:
            continue
        if len(params) > MAX_ARITY:
            _err(diags, decl, f"predicate {name!r} exceeds maximum arity {MAX_ARITY}", "arity-limit")
            continue
        domain.predicates.append(PredicateSchema(name, tuple(t for _, t in params)))


def _parse_action(section: _Node, body: list[_Node], domain: DomainDefinition, diags: list[Diagnostic]) -> None:
    if not body or body[0].is_list:
        _err(diags, section, "action is missing a name", "missing-name")
        return
    name = body[0].text
    if any(op.name == name for op in domain.operators):
        _err(diags, body[0], f"action {name!r} declared twice", "duplicate-name")
        return

    clauses: dict[str, _Node] = {}
    i = 1
    while i < len(body):
        node = body[i]
        key = _kw(node)
        if not key.startswith(":") or i + 1 >= len(body):
            _err(diags, node, f"expected ':clause VALUE' pairs in action {name!r}", "malformed")
            return
        if key in clauses:
            _err(diags, node, f"clause {key} repeated in action {name!r}", "duplicate-name")
            return
        clauses[key] = body[i + 1]
        i += 2
    unknown = set(clauses) - {":parameters", ":precondition", ":runcondition", ":effect", ":binding"}
    for key in sorted(unknown):
        _err(diags, clauses[key], f"unknown action clause {key}", "unknown-section")
    if unknown:
        return

    params: Optional[list[tuple[str, str]]] = []
    if ":parameters" in clauses:
        pnode = clauses[":parameters"]
        if not pnode.is_list:
            _err(diags, pnode, ":parameters must be a parenthesised list", "malformed")
            return
        params = _parse_params(pnode.items, domain, diags, f"action {name!r}")
        if params is None:
            return

    var_types = dict(params)
    if len(var_types) != len(params):
        _err(diags, clauses[":parameters"], f"duplicate parameter name in action {name!r}", "duplicate-name")
        return

    symbols = {**domain.constants, **var_types}
    literals = {
        key: _parse_literals(clauses[key], domain, symbols, diags, key == ":effect")
        for key in (":precondition", ":runcondition", ":effect")
        if key in clauses
    }
    ok = None not in literals.values()
    binding = ""
    if ":binding" in clauses:
        bnode = clauses[":binding"]
        if bnode.is_list:
            _err(diags, bnode, ":binding must be a bare primitive name", "malformed")
            ok = False
        else:
            binding = bnode.text
    if not ok:
        return
    pre = literals.get(":precondition", frozenset())
    domain.operators.append(OperatorSchema(
        name, tuple(params), pre, literals.get(":runcondition", pre),
        literals.get(":effect", frozenset()), binding,
    ))


def _parse_atom(
    node: _Node, domain: DomainDefinition, symbols: dict[str, str], diags: list[Diagnostic]
) -> Optional[LiftedAtom]:
    """``(predicate arg ...)`` whose arguments are keys of ``symbols``, which
    maps an action's parameters or a problem's objects, and the domain
    constants, to their types."""
    if not node.is_list or not node.items or node.items[0].is_list:
        _err(diags, node, "expected (predicate args...)", "malformed")
        return None
    name = node.items[0].text
    schema = domain.predicate(name)
    if schema is None:
        _err(diags, node.items[0], f"unknown predicate {name!r}", "unknown-predicate")
        return None
    args: list[str] = []
    for arg in node.items[1:]:
        if arg.is_list:
            _err(diags, arg, "predicate arguments must be symbols", "malformed")
            return None
        args.append(arg.text)
    if len(args) != schema.arity:
        _err(
            diags, node,
            f"arity mismatch: {name!r} takes {schema.arity} argument(s), got {len(args)}",
            "arity-mismatch",
        )
        return None
    for arg, expected in zip(args, schema.param_types):
        declared = symbols.get(arg)
        if declared is None and arg.startswith("?"):
            _err(diags, node, f"variable {arg!r} is not bound by a parameter", "unbound-variable")
            return None
        if declared is None:
            _err(diags, node, f"unknown object {arg!r} in {name!r}", "unknown-object")
            return None
        if not domain.is_subtype(declared, expected):
            _err(diags, node, f"{arg!r} has type {declared!r}, {name!r} expects {expected!r}", "type-error")
            return None
    return LiftedAtom(name, tuple(args))


def _parse_literals(
    node: _Node,
    domain: DomainDefinition,
    symbols: dict[str, str],
    diags: list[Diagnostic],
    effect: bool = False,
) -> Optional[frozenset[LiftedLiteral]]:
    """A literal, or an ``(and ...)`` of literals: a condition, a goal, or
    with ``effect`` an effect, whose positive literals add and negated ones
    delete.  No atom may occur both plain and negated."""
    wrapped = node.is_list and (not node.items or _kw(node.items[0]) == "and")
    items = node.items[1:] if wrapped else [node]
    literals: set[LiftedLiteral] = set()
    ok = True
    for item in items:
        positive = True
        target = item
        if item.is_list and item.items and _kw(item.items[0]) == "not":
            if len(item.items) != 2:
                _err(diags, item, "malformed (not ...) literal", "malformed")
                ok = False
                continue
            positive = False
            target = item.items[1]
        atom = _parse_atom(target, domain, symbols, diags)
        if atom is None:
            ok = False
            continue
        literals.add(LiftedLiteral(atom, positive))
    if not ok:
        return None
    both = {lit.atom for lit in literals if lit.positive} & {
        lit.atom for lit in literals if not lit.positive
    }
    names = sorted(str(a) for a in both)
    if both and effect:
        _err(diags, node, f"effect both adds and deletes {names}", "add-delete-overlap")
    elif both:
        _err(diags, node, f"condition both requires and negates {names}", "contradictory-literals")
    return None if both else frozenset(literals)
