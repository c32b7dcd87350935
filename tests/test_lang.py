"""Domain language: parsing and validation diagnostics."""

import ast
import inspect
import random
import re
from pathlib import Path

import pytest

from chainreact import lang
from chainreact.lang import (
    LiftedAtom,
    LiftedLiteral,
    parse_domain,
    parse_problem,
)
from tests.util import kitchen_domain, kitchen_source, problem_source

MINIMAL = "(define (domain d) (:types t) (:predicates (p ?x - t)) )"


class TestParseDomain:
    def test_minimal(self):
        result = parse_domain(MINIMAL)
        assert result.ok, result.diagnostics
        d = result.value
        assert set(d.types) == {"t"}
        assert len(d.predicates) == 1 and d.predicates[0].name == "p"
        assert d.operators == []

    def test_kitchen_parses(self):
        d = kitchen_domain()
        assert d.name == "kitchen"
        assert len(d.predicates) == 29
        assert len(d.operators) == 16
        assert d.constants == {"handle": "graspable"}
        assert d.types == {"movable": "graspable", "graspable": None}

    def test_arity_mismatch_position(self):
        src = "(define (domain d)\n(:types t)\n(:predicates (p ?x - t))\n(:action a\n  :precondition (p x y)\n))"
        # p is unary but used with two args; also x/y are unknown objects,
        # the arity error must come first and carry the right position.
        result = parse_domain(src)
        assert not result.ok
        errors = [d for d in result.diagnostics if d.code == "arity-mismatch"]
        assert errors, result.diagnostics
        assert errors[0].line == 5
        assert errors[0].column >= 17

    def test_unbalanced_parens(self):
        result = parse_domain("(define (domain d) (:types t)")
        assert not result.ok
        assert any(d.code == "unbalanced-parens" for d in result.diagnostics)

    def test_unknown_section(self):
        result = parse_domain("(define (domain d) (:bogus x))")
        assert not result.ok
        assert any(d.code == "unknown-section" for d in result.diagnostics)

    def test_undeclared_type(self):
        result = parse_domain("(define (domain d) (:predicates (p ?x - ghost)))")
        assert not result.ok
        assert any(d.code == "undeclared-type" for d in result.diagnostics)

    def test_duplicate_names(self):
        result = parse_domain(
            "(define (domain d) (:types t) (:predicates (p ?x - t) (p ?x - t)))"
        )
        assert not result.ok
        assert any(d.code == "duplicate-name" for d in result.diagnostics)

    def test_parent_declared_in_a_later_types_section(self):
        # t is a root type once the first section names it as a parent; a
        # later section may still declare it, once, under its own parent.
        result = parse_domain(
            "(define (domain d) (:types u - t) (:predicates (p ?x - t))"
            " (:types t - top) (:types t))"
        )
        assert [(d.code, d.line, d.column) for d in result.diagnostics] == [
            ("duplicate-name", 1, 85)
        ]
        result = parse_domain(
            "(define (domain d) (:types u - t) (:predicates (p ?x - t)) (:types t - top))"
        )
        assert result.ok, result.diagnostics
        assert result.value.types == {"u": "t", "t": "top", "top": None}
        assert result.value.is_subtype("u", "top")

    def test_unbound_variable(self):
        result = parse_domain(
            "(define (domain d) (:types t) (:predicates (p ?x - t))"
            " (:action a :parameters () :precondition (p ?z)))"
        )
        assert not result.ok
        assert any(d.code == "unbound-variable" for d in result.diagnostics)

    def test_add_delete_overlap_rejected(self):
        result = parse_domain(
            "(define (domain d) (:predicates (p))"
            " (:action a :effect (and (p) (not (p)))))"
        )
        assert not result.ok
        assert any(d.code == "add-delete-overlap" for d in result.diagnostics)

    def test_runcondition_parsed(self):
        result = parse_domain(
            "(define (domain d) (:predicates (p) (q))"
            " (:action a :precondition (p) :runcondition (q) :effect (and)))"
        )
        assert result.ok
        op = result.value.operators[0]
        assert op.run == frozenset({LiftedLiteral(LiftedAtom("q"))})
        assert op.pre == frozenset({LiftedLiteral(LiftedAtom("p"))})

    def test_runcondition_defaults_to_pre(self):
        result = parse_domain(
            "(define (domain d) (:predicates (p)) (:action a :precondition (p)))"
        )
        assert result.ok
        op = result.value.operators[0]
        assert op.run == op.pre

    def test_keywords_case_insensitive_symbols_not(self):
        result = parse_domain(
            "(DEFINE (Domain d) (:TYPES t) (:Predicates (Pred ?x - t)))"
        )
        assert result.ok
        assert result.value.predicates[0].name == "Pred"

    def test_diagnostic_positions_inside_source(self):
        bad_sources = [
            "(define (domain d) (:types t) (:predicates (p ?x - ghost)))",
            "(define (domain d)\n  (:bogus))",
            "(define (domain d) (:predicates (p)) (:action a :effect (and (p) (not (p)))))",
        ]
        for src in bad_sources:
            lines = src.splitlines()
            for diag in parse_domain(src).diagnostics:
                assert 1 <= diag.line <= len(lines)
                assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1


class TestParseProblem:
    def test_kitchen_problem(self):
        domain = kitchen_domain()
        result = parse_problem(problem_source("put_away_spam"), domain)
        assert result.ok, result.diagnostics
        p = result.value
        assert p.objects == {"spam": "movable", "sugar": "movable"}
        assert len(p.goal) == 2
        assert LiftedLiteral(LiftedAtom("obj_is_in_drawer", ("spam",))) in p.goal

    def test_empty_goal(self):
        domain = kitchen_domain()
        src = "(define (problem p) (:domain kitchen) (:objects spam - movable) (:init) (:goal (and)))"
        result = parse_problem(src, domain)
        assert result.ok
        assert result.value.goal == frozenset()

    def test_goal_type_error(self):
        domain = kitchen_domain()
        # handle is graspable, not movable; obj_is_in_drawer expects movable
        src = "(define (problem p) (:domain kitchen) (:objects spam - movable) (:goal (obj_is_in_drawer handle)))"
        result = parse_problem(src, domain)
        assert not result.ok
        assert any(d.code == "type-error" for d in result.diagnostics)

    def test_unknown_object_type(self):
        domain = kitchen_domain()
        src = "(define (problem p) (:domain kitchen) (:objects spam - widget) (:goal (and)))"
        result = parse_problem(src, domain)
        assert not result.ok
        assert any(d.code == "undeclared-type" for d in result.diagnostics)

    def test_problem_names_another_domain(self):
        domain = kitchen_domain()
        src = "(define (problem p) (:domain bathroom) (:goal (and)))"
        result = parse_problem(src, domain)
        assert not result.ok
        assert any(d.code == "wrong-domain" for d in result.diagnostics)

    def test_ill_typed_init_atom(self):
        domain = kitchen_domain()
        src = (
            "(define (problem p) (:domain kitchen) (:objects spam - movable)"
            " (:init (obj_is_on_counter handle)) (:goal (and)))"
        )
        result = parse_problem(src, domain)
        assert not result.ok
        assert any(d.code == "type-error" for d in result.diagnostics)


# Problems in the diagnostics table below are read against this domain.
TABLE_DOMAIN = """(define (domain d)
  (:types u - t)
  (:constants c - t k - u)
  (:predicates (p ?x - t) (q ?x - u) (r)))
"""
_TABLE_DOMAIN = parse_domain(TABLE_DOMAIN).value

# (kind, source, expected (code, line, column) list in order): at least one
# row per code of docs/domain-format.md, and rows with several errors that
# pin their order.
DIAGNOSTICS = {
    "unclosed": (
        "domain",
        "(define (domain d)\n"
        "  (:types t)",
        [("unbalanced-parens", 1, 1)],
    ),
    "unmatched": (
        "domain",
        "(define (domain d))\n"
        ")",
        [("unbalanced-parens", 2, 1)],
    ),
    "two_forms": (
        "domain",
        "(define (domain d))\n"
        "(define (domain e))",
        [("malformed", 1, 1)],
    ),
    "empty": (
        "domain",
        "",
        [("malformed", 1, 1)],
    ),
    "not_define": (
        "domain",
        "(defun (domain d))",
        [("malformed", 1, 1)],
    ),
    "no_header_name": (
        "domain",
        "(define (domain) (:types t))",
        [("missing-name", 1, 1)],
    ),
    "list_header_name": (
        "domain",
        "(define (domain (x)) (:types t))",
        [("missing-name", 1, 1)],
    ),
    "section_not_list": (
        "domain",
        "(define (domain d)\n"
        "  types)",
        [("malformed", 2, 3)],
    ),
    "unknown_section": (
        "domain",
        "(define (domain d)\n"
        "  (:bogus x))",
        [("unknown-section", 2, 4)],
    ),
    "dangling_dash": (
        "domain",
        "(define (domain d) (:types t -))",
        [("malformed", 1, 30)],
    ),
    "list_in_types": (
        "domain",
        "(define (domain d) (:types t (u)))",
        [("malformed", 1, 30)],
    ),
    "type_twice": (
        "domain",
        "(define (domain d) (:types t t))",
        [("duplicate-name", 1, 30)],
    ),
    "type_cycle": (
        # a and b are each their own ancestor, and so is c; d only
        # descends from the cycle.
        "domain",
        "(define (domain d) (:types a - b b - a c - c d - a))",
        [("type-cycle", 1, 28), ("type-cycle", 1, 34), ("type-cycle", 1, 40)],
    ),
    "type_cycle_split": (
        # b was a root type after the first section; the second declares it
        # and closes the cycle, reported at both declarations, once.
        "domain",
        "(define (domain d)\n"
        "  (:types a - b)\n"
        "  (:types b - a)\n"
        "  (:types t))",
        [("type-cycle", 2, 11), ("type-cycle", 3, 11)],
    ),
    "type_cycle_then_use": (
        # Each type on the cycle is read on as a root type, so b is no
        # longer an a, and no subtype test can loop.
        "domain",
        "(define (domain d)\n"
        "  (:types a - b b - a)\n"
        "  (:predicates (p ?x - a))\n"
        "  (:action x :parameters (?y - b) :precondition (p ?y)))",
        [("type-cycle", 2, 11), ("type-cycle", 2, 17), ("type-error", 4, 49)],
    ),
    "constant_untyped": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:constants a b - t c))",
        [("missing-type", 2, 23)],
    ),
    "constant_undeclared_type": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:constants a - ghost))",
        [("undeclared-type", 2, 15)],
    ),
    "constant_twice": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:constants a - t a - t))",
        [("duplicate-name", 2, 21)],
    ),
    "predicate_twice": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:predicates (p ?x - t)\n"
        "    (p ?y - t)))",
        [("duplicate-name", 3, 6)],
    ),
    "predicate_not_list": (
        "domain",
        "(define (domain d) (:predicates p))",
        [("malformed", 1, 33)],
    ),
    "predicate_param_no_q": (
        "domain",
        "(define (domain d) (:types t) (:predicates (p x - t)))",
        [("malformed", 1, 47)],
    ),
    "predicate_param_untyped": (
        "domain",
        "(define (domain d) (:types t) (:predicates (p ?x)))",
        [("missing-type", 1, 47)],
    ),
    "predicate_undeclared_type": (
        "domain",
        "(define (domain d)\n"
        "  (:predicates (p ?x - ghost)))",
        [("undeclared-type", 2, 19)],
    ),
    "arity_limit": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:predicates (p ?a - t ?b - t ?c - t ?d - t)))",
        [("arity-limit", 2, 16)],
    ),
    "action_no_name": (
        "domain",
        "(define (domain d)\n"
        "  (:action (x) :binding b))",
        [("missing-name", 2, 3)],
    ),
    "action_twice": (
        "domain",
        "(define (domain d)\n"
        "  (:action a)\n"
        "  (:action a))",
        [("duplicate-name", 3, 12)],
    ),
    "clause_without_value": (
        "domain",
        "(define (domain d)\n"
        "  (:action a :precondition))",
        [("malformed", 2, 14)],
    ),
    "clause_twice": (
        "domain",
        "(define (domain d) (:predicates (r))\n"
        "  (:action a :precondition (r)\n"
        "     :precondition (r)))",
        [("duplicate-name", 3, 6)],
    ),
    "clauses_unknown": (
        "domain",
        "(define (domain d)\n"
        "  (:action a :cost 1 :when (x)))",
        [("unknown-section", 2, 20), ("unknown-section", 2, 28)],
    ),
    "params_not_list": (
        "domain",
        "(define (domain d)\n"
        "  (:action a :parameters x))",
        [("malformed", 2, 26)],
    ),
    "param_no_q": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:action a :parameters (x - t)))",
        [("malformed", 2, 27)],
    ),
    "param_untyped": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:action a :parameters (?x)))",
        [("missing-type", 2, 27)],
    ),
    "param_undeclared_type": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:action a :parameters (?x - ghost)))",
        [("undeclared-type", 2, 27)],
    ),
    "params_two_undeclared_types": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:action a :parameters (?x ?y - ghost)))",
        [("undeclared-type", 2, 27), ("undeclared-type", 2, 30)],
    ),
    "params_no_q_and_undeclared_type": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:action a :parameters (x - t ?y - ghost)))",
        [("malformed", 2, 27), ("undeclared-type", 2, 33)],
    ),
    "predicate_params_two_undeclared_types": (
        "domain",
        "(define (domain d)\n"
        "  (:predicates (p ?x ?y - ghost)))",
        [("undeclared-type", 2, 19), ("undeclared-type", 2, 22)],
    ),
    "param_twice": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:action a :parameters (?x - t ?x - t)))",
        [("duplicate-name", 2, 26)],
    ),
    "atom_not_list": (
        "domain",
        "(define (domain d) (:predicates (r))\n"
        "  (:action a :precondition (and r)))",
        [("malformed", 2, 33)],
    ),
    "unknown_predicate": (
        "domain",
        "(define (domain d) (:predicates (r))\n"
        "  (:action a :precondition (and (r) (s))))",
        [("unknown-predicate", 2, 38)],
    ),
    "argument_list": (
        "domain",
        "(define (domain d) (:types t) (:predicates (p ?x - t))\n"
        "  (:action a :parameters (?x - t) :precondition (p (?x))))",
        [("malformed", 2, 52)],
    ),
    "arity_mismatch": (
        "domain",
        "(define (domain d)\n"
        "(:types t)\n"
        "(:predicates (p ?x - t))\n"
        "(:action a\n"
        "  :precondition (p x y)\n"
        "))",
        [("arity-mismatch", 5, 17)],
    ),
    "unknown_constant": (
        "domain",
        "(define (domain d) (:types t) (:predicates (p ?x - t))\n"
        "  (:action a :effect (p k)))",
        [("unknown-object", 2, 22)],
    ),
    "unbound_variable": (
        "domain",
        "(define (domain d) (:types t) (:predicates (p ?x - t))\n"
        "  (:action a :parameters () :runcondition (p ?z)))",
        [("unbound-variable", 2, 43)],
    ),
    "variable_type_error": (
        "domain",
        "(define (domain d) (:types u - t v) (:predicates (q ?x - u))\n"
        "  (:action a :parameters (?x - t)\n"
        "    :precondition (q ?x)))",
        [("type-error", 3, 19)],
    ),
    "constant_type_error": (
        "domain",
        "(define (domain d) (:types u - t) (:constants c - t) (:predicates (q ?x - u))\n"
        "  (:action a :effect (not (q c))))",
        [("type-error", 2, 27)],
    ),
    "not_with_two_atoms": (
        "domain",
        "(define (domain d) (:predicates (r))\n"
        "  (:action a :precondition (not (r) (r))))",
        [("malformed", 2, 28)],
    ),
    "effect_not_without_atom": (
        "domain",
        "(define (domain d) (:predicates (r))\n"
        "  (:action a :effect (and (not))))",
        [("malformed", 2, 27)],
    ),
    "add_delete_overlap": (
        "domain",
        "(define (domain d) (:predicates (r))\n"
        "  (:action a\n"
        "    :effect (and (r) (not (r)))))",
        [("add-delete-overlap", 3, 13)],
    ),
    "precondition_contradiction": (
        "domain",
        "(define (domain d) (:types t) (:predicates (p ?x - t) (r))\n"
        "  (:action a :parameters (?x - t)\n"
        "    :precondition (and (r) (p ?x) (not (p ?x)))))",
        [("contradictory-literals", 3, 19)],
    ),
    "runcondition_contradiction": (
        "domain",
        "(define (domain d) (:predicates (r))\n"
        "  (:action a :runcondition (and (not (r)) (r))))",
        [("contradictory-literals", 2, 28)],
    ),
    "constant_named_like_a_variable": (
        "domain",
        "(define (domain d) (:types t)\n"
        "  (:constants ?c - t))",
        [("malformed", 2, 15)],
    ),
    "binding_list": (
        "domain",
        "(define (domain d)\n"
        "  (:action a :binding (x)))",
        [("malformed", 2, 23)],
    ),
    "domain_errors_in_order": (
        "domain",
        "(define (domain d)\n"
        "  (:types t)\n"
        "  (:bogus)\n"
        "  (:predicates (p ?x - ghost) (r))\n"
        "  (:action a :parameters (?x - t)\n"
        "    :precondition (and (s) (r ?x))\n"
        "    :runcondition (p ?y)\n"
        "    :effect (and (r) (not (r)) (q)))\n"
        "  7)",
        [
            ("unknown-section", 3, 4),
            ("undeclared-type", 4, 19),
            ("unknown-predicate", 6, 25),
            ("arity-mismatch", 6, 28),
            ("unknown-predicate", 7, 20),
            ("unknown-predicate", 8, 33),
            ("malformed", 9, 3),
        ],
    ),
    "problem_no_header_name": (
        "problem",
        "(define (problem) (:domain d))",
        [("missing-name", 1, 1)],
    ),
    "problem_not_define": (
        "problem",
        "(problem p)",
        [("malformed", 1, 1)],
    ),
    "problem_unknown_section": (
        "problem",
        "(define (problem p)\n"
        "  (:requirements :strips))",
        [("unknown-section", 2, 4)],
    ),
    "domain_two_names": (
        "problem",
        "(define (problem p)\n"
        "  (:domain d e))",
        [("malformed", 2, 3)],
    ),
    "wrong_domain": (
        "problem",
        "(define (problem p)\n"
        "  (:domain e))",
        [("wrong-domain", 2, 12)],
    ),
    "object_untyped": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:objects a b - t z))",
        [("missing-type", 2, 21)],
    ),
    "object_undeclared_type": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:objects a - ghost))",
        [("undeclared-type", 2, 13)],
    ),
    "object_twice": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:objects a - t c - u\n"
        "    a - t))",
        [("duplicate-name", 2, 19), ("duplicate-name", 3, 5)],
    ),
    "init_not_list": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:init r))",
        [("malformed", 2, 10)],
    ),
    "init_unknown_predicate": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:init (s)))",
        [("unknown-predicate", 2, 11)],
    ),
    "init_arity": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:init (p c c)))",
        [("arity-mismatch", 2, 10)],
    ),
    "init_unknown_object": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:objects a - t)\n"
        "  (:init (p a) (p b)))",
        [("unknown-object", 3, 16)],
    ),
    "init_type_error": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:objects a - t)\n"
        "  (:init (q a)))",
        [("type-error", 3, 10)],
    ),
    # Problem atoms and action atoms share one parser: a variable is unbound
    # at the atom, and a list argument is malformed where it stands.
    "init_variable": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:init (p ?x)))",
        [("unbound-variable", 2, 10)],
    ),
    "init_argument_list": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:init (p (c))))",
        [("malformed", 2, 13)],
    ),
    "goal_contradiction": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:goal (and (p c) (q k) (not (p c)))))",
        [("contradictory-literals", 2, 10)],
    ),
    "object_named_like_a_variable": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:objects a ?b - t))",
        [("malformed", 2, 15)],
    ),
    "goal_two_forms": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:goal (r) (r)))",
        [("malformed", 2, 3)],
    ),
    "goal_not_with_two_atoms": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:goal (and (not (r) (r)))))",
        [("malformed", 2, 15)],
    ),
    "goal_unknown_object": (
        "problem",
        "(define (problem p) (:domain d)\n"
        "  (:goal (not (q z))))",
        [("unknown-object", 2, 15)],
    ),
    # A problem names one domain and one goal; repeated :objects and :init
    # sections merge.
    "domain_and_goal_twice": (
        "problem",
        "(define (problem p) (:domain d) (:goal (r))\n"
        "  (:init (r)) (:domain d)\n"
        "  (:goal (p c)) (:init (q k)))",
        [("duplicate-name", 2, 16), ("duplicate-name", 3, 4)],
    ),
    "problem_errors_in_order": (
        "problem",
        "(define (problem p)\n"
        "  (:domain d)\n"
        "  (:objects a - t a - t)\n"
        "  (:goal (and (s) (q a)))\n"
        "  (:init (p b) (r))\n"
        "  x)",
        [
            ("duplicate-name", 3, 19),
            ("unknown-predicate", 4, 16),
            ("type-error", 4, 19),
            ("unknown-object", 5, 10),
            ("malformed", 6, 3),
        ],
    ),
}


def _diagnostics(kind: str, source: str) -> list[tuple[str, int, int]]:
    if kind == "domain":
        result = parse_domain(source)
    else:
        result = parse_problem(source, _TABLE_DOMAIN)
    assert not result.ok and result.value is None
    return [(d.code, d.line, d.column) for d in result.diagnostics]


class TestDiagnosticsTable:
    @pytest.mark.parametrize("name", DIAGNOSTICS)
    def test_codes_and_positions_in_order(self, name):
        kind, source, expected = DIAGNOSTICS[name]
        assert _diagnostics(kind, source) == expected

    def test_internal_failure_is_a_diagnostic(self, monkeypatch):
        def boom(source, diags):
            raise RuntimeError("boom")

        monkeypatch.setattr(lang, "_read_sexprs", boom)
        for kind in ("domain", "problem"):
            assert _diagnostics(kind, "(define)") == [("internal", 1, 1)]


def test_documented_codes_are_the_emitted_codes():
    # The code of every _err and Diagnostic call in lang.py, against the
    # table in docs/domain-format.md.  Only _err itself passes a variable.
    calls = [
        node for node in ast.walk(ast.parse(inspect.getsource(lang)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("_err", "Diagnostic")
    ]
    codes = [call.args[-1] for call in calls]
    assert sum(not isinstance(code, ast.Constant) for code in codes) == 1
    emitted = {code.value for code in codes if isinstance(code, ast.Constant)}
    doc = Path(__file__).resolve().parent.parent / "docs" / "domain-format.md"
    documented = set(re.findall(r"^\| `([a-z-]+)` *\|", doc.read_text(encoding="utf-8"), re.M))
    assert emitted == documented


def test_injected_comments_do_not_change_the_parse():
    rng = random.Random(7)
    lines = kitchen_source().splitlines()
    for _ in range(20):
        i = rng.randrange(len(lines))
        lines.insert(i, f"  ; noise comment {rng.random()}  ")
        j = rng.randrange(len(lines))
        lines[j] = lines[j] + "   ; trailing ; nested ; comment"
    reparsed = parse_domain("\n".join(lines))
    assert reparsed.ok, reparsed.diagnostics
    assert reparsed.value == kitchen_domain()


class TestTotality:
    def test_fuzz_random_bytes_never_crash(self):
        rng = random.Random(1234)
        domain = kitchen_domain()
        for size in (0, 1, 17, 256, 4096, 65536):
            for _ in range(8):
                blob = bytes(rng.randrange(256) for _ in range(size))
                text = blob.decode("utf-8", errors="replace")
                parse_domain(text)
                parse_problem(text, domain)
        # one full-size case: a megabyte of arbitrary bytes
        blob = bytes(rng.randrange(256) for _ in range(1 << 20))
        result = parse_domain(blob.decode("utf-8", errors="replace"))
        assert result.value is not None or result.diagnostics

    def test_fuzz_paren_soup(self):
        rng = random.Random(99)
        alphabet = "()()()abc ?x - :types :action ; \n"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(400)))
            result = parse_domain(text)
            if result.value is None:
                assert result.diagnostics

    def test_mutated_kitchen_never_crashes(self):
        rng = random.Random(5)
        src = kitchen_source()
        for _ in range(100):
            chars = list(src)
            for _ in range(rng.randrange(1, 6)):
                i = rng.randrange(len(chars))
                op = rng.randrange(3)
                if op == 0:
                    del chars[i]
                elif op == 1:
                    chars.insert(i, rng.choice("()?-:xyz "))
                else:
                    chars[i] = rng.choice("()?-:xyz ")
            parse_domain("".join(chars))


def test_list_in_place_of_name_rejected():
    result = parse_domain("(define (domain (x)) (:types t))")
    assert not result.ok
    assert any(d.code == "missing-name" for d in result.diagnostics)
    result = parse_problem("(define (problem (x)) (:domain kitchen))", kitchen_domain())
    assert not result.ok
