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
from typing import Iterable, Optional

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
    """Parameterised action with preconditions, run conditions and effects."""

    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type)
    pre: frozenset[LiftedLiteral]
    run: Optional[frozenset[LiftedLiteral]]  # None means "defaults to pre"
    adds: frozenset[LiftedAtom]
    deletes: frozenset[LiftedAtom]
    binding: str = ""

    @property
    def effective_run(self) -> frozenset[LiftedLiteral]:
        return self.pre if self.run is None else self.run


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
    domain_name: str
    objects: dict[str, str] = field(default_factory=dict)  # symbol -> type
    init: frozenset[LiftedAtom] = frozenset()  # fully ground atoms
    goal: frozenset[LiftedLiteral] = frozenset()  # fully ground literals


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int
    column: int
    message: str
    code: str = ""

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass
class ParseResult:
    """Either a value or a non-empty list of error diagnostics."""

    value: object = None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.value is not None and not any(
            d.severity == "error" for d in self.diagnostics
        )


# --------------------------------------------------------------------------
# Tokenizer and s-expression reader
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s();]+")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


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


def _tokenize(source: str) -> list[_Tok]:
    toks: list[_Tok] = []
    for line_no, line in enumerate(source.splitlines(), start=1):
        body = line.split(";", 1)[0]
        for m in _TOKEN_RE.finditer(body):
            toks.append(_Tok(m.group(), line_no, m.start() + 1))
    return toks


def _read_sexprs(source: str, diags: list[Diagnostic]) -> list[_Node]:
    """Parse all top-level s-expressions; report unbalanced parentheses."""
    toks = _tokenize(source)
    top: list[_Node] = []
    stack: list[_Node] = []
    for tok in toks:
        if tok.text == "(":
            node = _Node(tok.line, tok.col, items=[])
            (stack[-1].items if stack else top).append(node)
            stack.append(node)
        elif tok.text == ")":
            if not stack:
                diags.append(
                    Diagnostic(
                        "error", tok.line, tok.col,
                        "unmatched closing parenthesis", "unbalanced-parens",
                    )
                )
                return top
            stack.pop()
        else:
            leaf = _Node(tok.line, tok.col, text=tok.text)
            (stack[-1].items if stack else top).append(leaf)
    if stack:
        open_node = stack[-1]
        diags.append(
            Diagnostic(
                "error", open_node.line, open_node.col,
                "unclosed parenthesis", "unbalanced-parens",
            )
        )
    return top


def _err(diags: list[Diagnostic], node: _Node, message: str, code: str) -> None:
    diags.append(Diagnostic("error", node.line, node.col, message, code))


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
# Domain parsing
# --------------------------------------------------------------------------


def parse_domain(source: str) -> ParseResult:
    """Parse and validate a domain definition.

    Returns a :class:`ParseResult` whose value is a
    :class:`DomainDefinition` on success; on failure ``value`` is ``None``
    and ``diagnostics`` holds at least one error.
    """
    diags: list[Diagnostic] = []
    try:
        domain = _parse_domain_inner(source, diags)
    except Exception as exc:  # totality guard for malformed input
        diags.append(Diagnostic("error", 1, 1, f"internal parse failure: {exc}", "internal"))
        domain = None
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)
    return ParseResult(domain, diags)


def _parse_domain_inner(source: str, diags: list[Diagnostic]) -> Optional[DomainDefinition]:
    top = _read_sexprs(source, diags)
    if diags:
        return None
    if len(top) != 1 or not top[0].is_list:
        pos = top[0] if top else _Node(1, 1, text="")
        _err(diags, pos, "expected a single (define ...) form", "malformed")
        return None
    form = top[0].items
    if not form or _kw(form[0]) != "define":
        _err(diags, top[0], "expected (define (domain ...) ...)", "malformed")
        return None
    if (
        len(form) < 2
        or not form[1].is_list
        or len(form[1].items) != 2
        or _kw(form[1].items[0]) != "domain"
        or form[1].items[1].is_list
    ):
        _err(diags, top[0], "missing (domain NAME) header", "missing-name")
        return None
    domain = DomainDefinition(name=form[1].items[1].text)

    for section in form[2:]:
        if not section.is_list or not section.items or section.items[0].is_list:
            _err(diags, section, "expected a (:section ...) form", "malformed")
            continue
        head = _kw(section.items[0])
        body = section.items[1:]
        if head == ":types":
            _parse_types(body, domain, diags)
        elif head == ":constants":
            _parse_constants(body, domain, diags)
        elif head == ":predicates":
            _parse_predicates(body, domain, diags)
        elif head == ":action":
            _parse_action(section, body, domain, diags)
        else:
            _err(diags, section.items[0], f"unknown section keyword {section.items[0].text!r}", "unknown-section")
    return domain


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


def _parse_constants(body: list[_Node], domain: DomainDefinition, diags: list[Diagnostic]) -> None:
    for name, type_name, node in _parse_typed_list(body, diags, ":constants", require_type=True):
        if type_name is None:
            continue
        if type_name not in domain.types:
            _err(diags, node, f"constant {name!r} has undeclared type {type_name!r}", "undeclared-type")
            continue
        if name in domain.constants:
            _err(diags, node, f"constant {name!r} declared twice", "duplicate-name")
            continue
        domain.constants[name] = type_name


def _parse_predicates(body: list[_Node], domain: DomainDefinition, diags: list[Diagnostic]) -> None:
    for decl in body:
        if not decl.is_list or not decl.items or decl.items[0].is_list:
            _err(diags, decl, "predicate declaration must be (name ?v - type ...)", "malformed")
            continue
        name = decl.items[0].text
        if domain.predicate(name) is not None:
            _err(diags, decl.items[0], f"predicate {name!r} declared twice", "duplicate-name")
            continue
        params = _parse_typed_list(decl.items[1:], diags, f"predicate {name!r}", require_type=True)
        types: list[str] = []
        bad = False
        for var, type_name, node in params:
            if not var.startswith("?"):
                _err(diags, node, f"predicate parameter {var!r} must start with '?'", "malformed")
                bad = True
            if type_name is None:
                bad = True
                continue
            if type_name not in domain.types:
                _err(diags, node, f"parameter type {type_name!r} is not declared", "undeclared-type")
                bad = True
            types.append(type_name)
        if bad:
            continue
        if len(types) > MAX_ARITY:
            _err(diags, decl, f"predicate {name!r} exceeds maximum arity {MAX_ARITY}", "arity-limit")
            continue
        domain.predicates.append(PredicateSchema(name, tuple(types)))


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

    params: list[tuple[str, str]] = []
    if ":parameters" in clauses:
        pnode = clauses[":parameters"]
        if not pnode.is_list:
            _err(diags, pnode, ":parameters must be a parenthesised list", "malformed")
            return
        for var, type_name, node in _parse_typed_list(pnode.items, diags, f"action {name!r} parameters", require_type=True):
            if not var.startswith("?"):
                _err(diags, node, f"parameter {var!r} must start with '?'", "malformed")
                return
            if type_name is None:
                return
            if type_name not in domain.types:
                _err(diags, node, f"parameter type {type_name!r} is not declared", "undeclared-type")
                return
            params.append((var, type_name))

    var_types = dict(params)
    if len(var_types) != len(params):
        _err(diags, clauses[":parameters"], f"duplicate parameter name in action {name!r}", "duplicate-name")
        return

    ok = True
    pre: frozenset[LiftedLiteral] = frozenset()
    run: Optional[frozenset[LiftedLiteral]] = None
    adds: frozenset[LiftedAtom] = frozenset()
    deletes: frozenset[LiftedAtom] = frozenset()
    if ":precondition" in clauses:
        got = _parse_condition(clauses[":precondition"], domain, var_types, diags, allow_negative=True)
        ok &= got is not None
        pre = got or pre
    if ":runcondition" in clauses:
        got = _parse_condition(clauses[":runcondition"], domain, var_types, diags, allow_negative=True)
        ok &= got is not None
        run = got
    if ":effect" in clauses:
        got_eff = _parse_effect(clauses[":effect"], domain, var_types, diags)
        if got_eff is None:
            ok = False
        else:
            adds, deletes = got_eff
    binding = ""
    if ":binding" in clauses:
        bnode = clauses[":binding"]
        if bnode.is_list:
            _err(diags, bnode, ":binding must be a bare primitive name", "malformed")
            ok = False
        else:
            binding = bnode.text
    if overlap := adds & deletes:
        _err(diags, clauses[":effect"], f"action {name!r} both adds and deletes {sorted(str(a) for a in overlap)}", "add-delete-overlap")
        ok = False
    if not ok:
        return
    domain.operators.append(
        OperatorSchema(name, tuple(params), pre, run, adds, deletes, binding)
    )


def _iter_condition_items(node: _Node) -> list[_Node]:
    """Unwrap an optional (and ...) wrapper around literals."""
    if node.is_list and node.items and not node.items[0].is_list and _kw(node.items[0]) == "and":
        return node.items[1:]
    if node.is_list and not node.items:
        return []
    return [node]


def _parse_atom(node: _Node, domain: DomainDefinition, var_types: dict[str, str], diags: list[Diagnostic]) -> Optional[LiftedAtom]:
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
        if arg.startswith("?"):
            declared = var_types.get(arg)
            if declared is None:
                _err(diags, node, f"variable {arg!r} is not an action parameter", "unbound-variable")
                return None
            if not domain.is_subtype(declared, expected):
                _err(diags, node, f"variable {arg!r} has type {declared!r}, {name!r} expects {expected!r}", "type-error")
                return None
        else:
            declared = domain.constants.get(arg)
            if declared is None:
                _err(diags, node, f"unknown constant {arg!r} in {name!r}", "unknown-object")
                return None
            if not domain.is_subtype(declared, expected):
                _err(diags, node, f"constant {arg!r} has type {declared!r}, {name!r} expects {expected!r}", "type-error")
                return None
    return LiftedAtom(name, tuple(args))


def _parse_condition(
    node: _Node,
    domain: DomainDefinition,
    var_types: dict[str, str],
    diags: list[Diagnostic],
    allow_negative: bool,
) -> Optional[frozenset[LiftedLiteral]]:
    literals: set[LiftedLiteral] = set()
    ok = True
    for item in _iter_condition_items(node):
        positive = True
        target = item
        if item.is_list and item.items and not item.items[0].is_list and _kw(item.items[0]) == "not":
            if len(item.items) != 2 or not allow_negative:
                _err(diags, item, "malformed (not ...) literal", "malformed")
                ok = False
                continue
            positive = False
            target = item.items[1]
        atom = _parse_atom(target, domain, var_types, diags)
        if atom is None:
            ok = False
            continue
        literals.add(LiftedLiteral(atom, positive))
    return frozenset(literals) if ok else None


def _parse_effect(
    node: _Node,
    domain: DomainDefinition,
    var_types: dict[str, str],
    diags: list[Diagnostic],
) -> Optional[tuple[frozenset[LiftedAtom], frozenset[LiftedAtom]]]:
    adds: set[LiftedAtom] = set()
    deletes: set[LiftedAtom] = set()
    ok = True
    for item in _iter_condition_items(node):
        if item.is_list and item.items and not item.items[0].is_list and _kw(item.items[0]) == "not":
            if len(item.items) != 2:
                _err(diags, item, "malformed (not ...) effect", "malformed")
                ok = False
                continue
            atom = _parse_atom(item.items[1], domain, var_types, diags)
            if atom is None:
                ok = False
                continue
            deletes.add(atom)
        else:
            atom = _parse_atom(item, domain, var_types, diags)
            if atom is None:
                ok = False
                continue
            adds.add(atom)
    return (frozenset(adds), frozenset(deletes)) if ok else None


# --------------------------------------------------------------------------
# Problem parsing
# --------------------------------------------------------------------------


def parse_problem(source: str, domain: DomainDefinition) -> ParseResult:
    """Parse and validate a problem against an already validated domain."""
    diags: list[Diagnostic] = []
    try:
        problem = _parse_problem_inner(source, domain, diags)
    except Exception as exc:
        diags.append(Diagnostic("error", 1, 1, f"internal parse failure: {exc}", "internal"))
        problem = None
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)
    return ParseResult(problem, diags)


def _parse_problem_inner(source: str, domain: DomainDefinition, diags: list[Diagnostic]) -> Optional[ProblemDefinition]:
    top = _read_sexprs(source, diags)
    if diags:
        return None
    if len(top) != 1 or not top[0].is_list:
        pos = top[0] if top else _Node(1, 1, text="")
        _err(diags, pos, "expected a single (define ...) form", "malformed")
        return None
    form = top[0].items
    if not form or _kw(form[0]) != "define":
        _err(diags, top[0], "expected (define (problem ...) ...)", "malformed")
        return None
    if (
        len(form) < 2
        or not form[1].is_list
        or len(form[1].items) != 2
        or _kw(form[1].items[0]) != "problem"
        or form[1].items[1].is_list
    ):
        _err(diags, top[0], "missing (problem NAME) header", "missing-name")
        return None
    problem = ProblemDefinition(name=form[1].items[1].text, domain_name="")

    objects: dict[str, str] = {}
    init: set[LiftedAtom] = set()
    goal: set[LiftedLiteral] = set()

    def lookup(symbol: str) -> Optional[str]:
        return objects.get(symbol) or domain.constants.get(symbol)

    for section in form[2:]:
        if not section.is_list or not section.items or section.items[0].is_list:
            _err(diags, section, "expected a (:section ...) form", "malformed")
            continue
        head = _kw(section.items[0])
        body = section.items[1:]
        if head == ":domain":
            if len(body) != 1 or body[0].is_list:
                _err(diags, section, "(:domain NAME) expects one name", "malformed")
                continue
            problem.domain_name = body[0].text
            if problem.domain_name != domain.name:
                _err(diags, body[0], f"problem targets domain {problem.domain_name!r}, loaded domain is {domain.name!r}", "wrong-domain")
        elif head == ":objects":
            for name, type_name, node in _parse_typed_list(body, diags, ":objects", require_type=True):
                if type_name is None:
                    continue
                if type_name not in domain.types:
                    _err(diags, node, f"object {name!r} has undeclared type {type_name!r}", "undeclared-type")
                    continue
                if name in objects or name in domain.constants:
                    _err(diags, node, f"object {name!r} declared twice", "duplicate-name")
                    continue
                objects[name] = type_name
        elif head == ":init":
            for item in body:
                atom = _parse_ground_atom(item, domain, lookup, diags)
                if atom is not None:
                    init.add(atom)
        elif head == ":goal":
            if len(body) != 1:
                _err(diags, section, "(:goal ...) expects one condition form", "malformed")
                continue
            got = _parse_ground_condition(body[0], domain, lookup, diags)
            if got is not None:
                goal = set(got)
        else:
            _err(diags, section.items[0], f"unknown section keyword {section.items[0].text!r}", "unknown-section")

    problem.objects = objects
    problem.init = frozenset(init)
    problem.goal = frozenset(goal)
    return problem


def _parse_ground_atom(node: _Node, domain: DomainDefinition, lookup, diags: list[Diagnostic]) -> Optional[LiftedAtom]:
    if not node.is_list or not node.items or node.items[0].is_list:
        _err(diags, node, "expected (predicate objects...)", "malformed")
        return None
    name = node.items[0].text
    schema = domain.predicate(name)
    if schema is None:
        _err(diags, node.items[0], f"unknown predicate {name!r}", "unknown-predicate")
        return None
    args: list[str] = []
    for arg in node.items[1:]:
        if arg.is_list or arg.text.startswith("?"):
            _err(diags, arg if not arg.is_list else node, "ground atoms take object symbols only", "malformed")
            return None
        args.append(arg.text)
    if len(args) != schema.arity:
        _err(diags, node, f"arity mismatch: {name!r} takes {schema.arity} argument(s), got {len(args)}", "arity-mismatch")
        return None
    for arg, expected in zip(args, schema.param_types):
        declared = lookup(arg)
        if declared is None:
            _err(diags, node, f"unknown object {arg!r} in {name!r}", "unknown-object")
            return None
        if not domain.is_subtype(declared, expected):
            _err(diags, node, f"object {arg!r} has type {declared!r}, {name!r} expects {expected!r}", "type-error")
            return None
    return LiftedAtom(name, tuple(args))


def _parse_ground_condition(node: _Node, domain: DomainDefinition, lookup, diags: list[Diagnostic]) -> Optional[frozenset[LiftedLiteral]]:
    literals: set[LiftedLiteral] = set()
    ok = True
    for item in _iter_condition_items(node):
        positive = True
        target = item
        if item.is_list and item.items and not item.items[0].is_list and _kw(item.items[0]) == "not":
            if len(item.items) != 2:
                _err(diags, item, "malformed (not ...) literal", "malformed")
                ok = False
                continue
            positive = False
            target = item.items[1]
        atom = _parse_ground_atom(target, domain, lookup, diags)
        if atom is None:
            ok = False
            continue
        literals.add(LiftedLiteral(atom, positive))
    return frozenset(literals) if ok else None


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


def _fmt_typed(pairs: Iterable[tuple[str, str]]) -> str:
    return " ".join(f"{name} - {type_name}" for name, type_name in pairs)


def _fmt_literal(lit: LiftedLiteral) -> str:
    return str(lit.atom) if lit.positive else f"(not {lit.atom})"


def _fmt_condition(literals: frozenset[LiftedLiteral]) -> str:
    parts = sorted(_fmt_literal(l) for l in literals)
    return "(and " + " ".join(parts) + ")" if parts else "(and)"


def serialize_domain(domain: DomainDefinition) -> str:
    """Render a domain such that parsing the output reproduces it."""
    lines = [f"(define (domain {domain.name})"]
    if domain.types:
        decls = []
        for name in domain.types:
            parent = domain.types[name]
            decls.append(f"{name} - {parent}" if parent else name)
        lines.append(f"  (:types {' '.join(decls)})")
    if domain.constants:
        lines.append(f"  (:constants {_fmt_typed(domain.constants.items())})")
    if domain.predicates:
        lines.append("  (:predicates")
        for pred in domain.predicates:
            params = " ".join(
                f"?v{i} - {t}" for i, t in enumerate(pred.param_types)
            )
            lines.append(f"    ({pred.name}{' ' + params if params else ''})")
        lines.append("  )")
    for op in domain.operators:
        lines.append(f"  (:action {op.name}")
        lines.append(f"    :parameters ({_fmt_typed(op.params)})")
        lines.append(f"    :precondition {_fmt_condition(op.pre)}")
        if op.run is not None:
            lines.append(f"    :runcondition {_fmt_condition(op.run)}")
        effects = sorted(str(a) for a in op.adds) + sorted(
            f"(not {a})" for a in op.deletes
        )
        lines.append(f"    :effect (and {' '.join(effects)})")
        if op.binding:
            lines.append(f"    :binding {op.binding}")
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def serialize_problem(problem: ProblemDefinition) -> str:
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain_name})")
    if problem.objects:
        lines.append(f"  (:objects {_fmt_typed(sorted(problem.objects.items()))})")
    atoms = sorted(str(a) for a in problem.init)
    lines.append(f"  (:init {' '.join(atoms)})")
    lines.append(f"  (:goal {_fmt_condition(problem.goal)})")
    lines.append(")")
    return "\n".join(lines) + "\n"


def load_domain_file(path: str) -> ParseResult:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_domain(fh.read())


def load_problem_file(path: str, domain: DomainDefinition) -> ParseResult:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), domain)
