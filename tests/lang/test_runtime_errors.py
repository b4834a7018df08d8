"""The evaluator's runtime errors and scoping rules, pinned message by message.

Each case loads a small capability-safe module whose top level triggers
the error, and checks the exact :class:`ShillRuntimeError` text.  The
second half pins the observable scoping behaviour the evaluator must
keep: evaluation order, write-once frames, recursion through a reserved
definition, and closures named by the definition that binds them.
"""

from __future__ import annotations

import pytest

from repro.errors import ShillRuntimeError
from repro.lang.runner import ShillRuntime


@pytest.fixture
def rt(kernel) -> ShillRuntime:
    return ShillRuntime(kernel, user="alice", cwd="/home/alice")


def load(rt: ShillRuntime, body: str):
    """Load ``body`` as a capability-safe module; returns its environment."""
    rt.register_script("m.cap", "#lang shill/cap\n" + body + "\n")
    return rt.loader.load("m.cap").env


ERRORS = {
    # variables
    "unbound": ("y = nope;", "unbound variable 'nope'"),
    "unbound_in_fun": ("f = fun() { later; };\ny = f();", "unbound variable 'later'"),
    "unbound_after_block": ("b = { inner = 1; inner; };\ny = inner;",
                            "unbound variable 'inner'"),
    "self_reference": ("x = x + 1;", "variable 'x' used before its definition completed"),
    "pending_through_call": ("f = fun() { g(); };\ng = f();",
                             "variable 'g' used before its definition completed"),
    "pending_in_block": ("y = { z = z; };",
                         "variable 'z' used before its definition completed"),
    # conditions
    "if_condition": ("if 1 then 2;", "condition must be a boolean, got 1"),
    "if_in_fun": ("f = fun(c) { if c then 1 else 2; };\ny = f(\"no\");",
                  "condition must be a boolean, got 'no'"),
    "and_left": ("y = 1 && true;", "condition must be a boolean, got 1"),
    "and_right": ("y = true && 1;", "condition must be a boolean, got 1"),
    "or_left": ('y = "a" || true;', "condition must be a boolean, got 'a'"),
    "or_right": ("y = false || 0;", "condition must be a boolean, got 0"),
    "not": ("y = !3;", "condition must be a boolean, got 3"),
    "not_list": ("y = ![];", "condition must be a boolean, got []"),
    # loops
    "for_string": ('for i in "abc" { i; }', "for expects a list, got 'abc'"),
    "for_number": ("for i in 3 { i; }", "for expects a list, got 3"),
    # application
    "arity_named": ("f = fun(a, b) { a; };\ny = f(1);", "f expects 2 argument(s), got 1"),
    "arity_anonymous": ("y = fun(a) { a; }(1, 2);",
                        "<anonymous fun> expects 1 argument(s), got 2"),
    "arity_zero": ("f = fun() { 1; };\ny = f(1);", "f expects 0 argument(s), got 1"),
    "kwargs_to_closure": ("f = fun(a) { a; };\ny = f(a = 1);",
                          "f does not accept keyword arguments"),
    "kwargs_before_arity": ("f = fun(a) { a; };\ny = f(1, 2, a = 1);",
                            "f does not accept keyword arguments"),
    "call_number": ("y = 3(1);", "not a function: 3"),
    "call_string": ('y = "s"();', "not a function: 's'"),
    "call_list": ("y = [1](0);", "not a function: [1]"),
    # arithmetic
    "negate_string": ('y = -"a";', "unary - on non-number 'a'"),
    "negate_bool": ("y = -true;", "unary - on non-number True"),
    "add_mixed": ('y = 1 + "a";', "operator '+' expects numbers, got 'a'"),
    "add_bool": ("y = true + 1;", "operator '+' expects numbers, got True"),
    "add_lists": ("y = [1] + [2];", "operator '+' expects numbers, got [1]"),
    "subtract_string": ('y = "a" - 1;', "operator '-' expects numbers, got 'a'"),
    "multiply_bool": ("y = 2 * false;", "operator '*' expects numbers, got False"),
    "less_string": ('y = "a" < 1;', "operator '<' expects numbers, got 'a'"),
    "greater_equal_list": ("y = 1 >= [1];", "operator '>=' expects numbers, got [1]"),
    "divide_by_zero": ("y = 1 / 0;", "division by zero"),
    "divide_float_by_zero": ("y = 1.5 / 0.0;", "division by zero"),
    "modulo_by_zero": ("y = 5 % 0;", "modulo by zero"),
    "divide_string_first": ('y = "a" / 0;', "operator '/' expects numbers, got 'a'"),
    # write-once frames
    "duplicate_definition": ("x = 1;\nx = 2;",
                             "duplicate definition of 'x' (SHILL has no mutable variables)"),
    "duplicate_parameter": ("f = fun(a, a) { a; };\ny = f(1, 2);",
                            "duplicate definition of 'a' (SHILL has no mutable variables)"),
    "duplicate_loop_variable": ("for i in [1] { i = 2; }",
                                "duplicate definition of 'i' (SHILL has no mutable variables)"),
    "duplicate_in_body": ("f = fun() { a = 1; a = 2; };\ny = f();",
                          "duplicate definition of 'a' (SHILL has no mutable variables)"),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_runtime_error_message(rt, case):
    body, message = ERRORS[case]
    with pytest.raises(ShillRuntimeError) as exc:
        load(rt, body)
    assert str(exc.value) == message


def test_unknown_nodes_fail_only_when_reached(rt):
    """Malformed trees (built in Python, not parsed) fail when executed,
    with the node in the message — not when the module is loaded."""
    from repro.lang import ast_ as A

    bad = A.If(A.Lit(False), A.Lit(1))          # a Lit where a statement belongs
    env = rt.cap_env()
    assert rt.interp.exec_stmts([bad], env) is not None
    with pytest.raises(ShillRuntimeError) as exc:
        rt.interp.exec_stmts([A.If(A.Lit(True), A.Lit(1))], env)
    assert str(exc.value) == "unknown statement Lit(value=1)"
    with pytest.raises(ShillRuntimeError) as exc:
        rt.interp.exec_stmts([A.ExprStmt(A.BinOp("**", A.Lit(2), A.Lit(3)))], env)
    assert str(exc.value) == "unknown operator '**'"
    with pytest.raises(ShillRuntimeError) as exc:
        rt.interp.exec_stmts([A.ExprStmt(A.UnOp("~", A.Lit(2)))], env)
    assert str(exc.value) == "unknown unary operator '~'"


def test_short_circuits_skip_the_right_operand(rt):
    env = load(rt, "a = false && 1;\nb = true || 1;\nc = false && nope;")
    assert env.lookup("a") is False
    assert env.lookup("b") is True
    assert env.lookup("c") is False


def test_evaluation_order_is_function_then_args_then_kwargs(rt):
    rt.register_script("order.cap", (
        "#lang shill/cap\n"
        "provide f : {log : any, sink : any} -> any;\n"
        "f = fun(log, sink) { log(sink)(log(1), log(2), k = log(3)); }\n"))
    f = rt.load_cap_exports("order.cap")["f"]
    seen: list = []

    def log(value):
        seen.append(value)
        return value

    def sink(*args, **kwargs):
        return [list(args), kwargs]

    assert rt.call(f, log, sink) == [[1, 2], {"k": 3}]
    assert seen == [sink, 1, 2, 3]


def test_arguments_are_evaluated_before_the_arity_check(rt):
    rt.register_script("arity.cap", (
        "#lang shill/cap\n"
        "provide f : {log : any} -> any;\n"
        "g = fun(a) { a; }\n"
        "f = fun(log) { g(log(1), log(2)); }\n"))
    f = rt.load_cap_exports("arity.cap")["f"]
    seen: list = []
    with pytest.raises(ShillRuntimeError) as exc:
        rt.call(f, seen.append)
    assert str(exc.value) == "g expects 1 argument(s), got 2"
    assert seen == [1, 2]


class TestScoping:
    def test_reference_before_a_block_definition_sees_the_outer_binding(self, rt):
        env = load(rt, "x = 1;\nf = fun() { g = x; x = 2; [g, x]; };\ny = f();")
        assert env.lookup("y") == [1, 2]

    def test_closure_sees_a_later_definition_once_it_exists(self, rt):
        env = load(rt, (
            "x = 1;\n"
            "f = fun() {\n"
            "  h = fun() { x; };\n"
            "  a = h();\n"
            "  x = 2;\n"
            "  [a, h()];\n"
            "};\n"
            "y = f();"))
        assert env.lookup("y") == [1, 2]

    def test_body_definition_shadows_a_parameter(self, rt):
        env = load(rt, "f = fun(a) { b = a; a = 2; [b, a]; };\ny = f(1);")
        assert env.lookup("y") == [1, 2]

    def test_loop_body_gets_a_fresh_frame_per_iteration(self, rt):
        env = load(rt, (
            "f = fun(l) { for i in l { d = i * 2; seen(d); } };\n"
            "acc = [];\n"
            "seen = fun(v) { v; };\n"
            "y = f([1, 2, 3]);"))
        assert repr(env.lookup("y")) == "void"

    def test_block_value_is_its_last_statement(self, rt):
        env = load(rt, "y = { a = 1; a + 1; };\nz = {};\nw = { q = 1; };")
        assert env.lookup("y") == 2
        assert repr(env.lookup("z")) == "void"
        assert repr(env.lookup("w")) == "void"

    def test_module_definitions_are_visible_to_earlier_functions(self, rt):
        env = load(rt, "f = fun() { later; };\nlater = 5;\ny = f();")
        assert env.lookup("y") == 5

    def test_recursive_definition(self, rt):
        env = load(rt, "fact = fun(n) { if n <= 1 then 1 else n * fact(n - 1); };\n"
                       "y = fact(6);")
        assert env.lookup("y") == 720

    def test_recursion_inside_a_function_body(self, rt):
        env = load(rt, (
            "f = fun(n) {\n"
            "  go = fun(i, acc) { if i == 0 then acc else go(i - 1, acc + i); };\n"
            "  go(n, 0);\n"
            "};\n"
            "y = f(4);"))
        assert env.lookup("y") == 10

    def test_definition_names_its_closure(self, rt):
        env = load(rt, (
            "f = fun(x) { x; };\n"
            "h = f;\n"
            "mk = fun() { fun(x) { x; }; };\n"
            "g = mk();\n"
            "a = to_string(f);\n"
            "b = to_string(h);\n"
            "c = to_string(g);\n"
            "d = to_string(fun(p, q) { p; });"))
        assert env.lookup("a") == "<fun f(x)>"
        assert env.lookup("b") == "<fun f(x)>"
        assert env.lookup("c") == "<fun g(x)>"
        assert env.lookup("d") == "<fun <anonymous fun>(p, q)>"

    def test_integer_division_stays_integral(self, rt):
        env = load(rt, "a = 6 / 3;\nb = 7 / 2;\nc = -7 % 3;\nd = 2 + 3 * 4 - 1;")
        assert (env.lookup("a"), env.lookup("b")) == (2, 3.5)
        assert type(env.lookup("a")) is int
        assert env.lookup("c") == 2
        assert env.lookup("d") == 13
