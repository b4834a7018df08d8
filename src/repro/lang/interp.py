"""The capability-safe evaluator: a compiler from the AST to Python closures.

A small strict language with no mutable variables and no ambient
authority: every resource the script touches arrives as a capability
argument or is derived from one.

Each statement and expression is compiled once into a closure
``code(env)``; running a script is calling closures, never dispatching
on node types.  Compiled code holds no runtime state, so one compilation
serves every runtime in the process (:mod:`repro.lang.modules` caches
the compiled capability-safe modules).

Variables are resolved at compile time where the frame that binds them
is static: a reference compiles to "the frame ``depth`` links up",
counting only frames that can hold a binding (scopes without
definitions get no frame at all).  Only where a definition might or
might not have run by the time of the reference — a definition that
sits under a condition, or a later definition seen from inside a
closure — does the reference walk the environment chain as before.

The evaluator also owns **value application**: closures, builtins and
contract-guarded functions all funnel through :meth:`Interp.apply`,
which is where function contracts interpose.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import ShillRuntimeError
from repro.contracts.functionctc import GuardedFunction
from repro.lang import ast_ as A
from repro.lang.env import Env
from repro.lang.values import VOID, BuiltinFunction, Closure, truthy

_PENDING = object()
_MISSING = object()

#: Compiled code: runs one statement or expression in an environment.
Code = Callable[[Env], Any]


class Interp:
    """Evaluator shared by both dialects (the ambient dialect is the same
    machine over a restricted AST plus ambient builtins)."""

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------

    @staticmethod
    def apply(fn: Any, args: Sequence[Any], kwargs: Mapping[str, Any] | None = None) -> Any:
        kwargs = kwargs or {}
        if isinstance(fn, GuardedFunction):
            return fn.invoke(Interp._apply_raw, args, kwargs)
        return Interp._apply_raw(fn, args, kwargs)

    @staticmethod
    def _apply_raw(fn: Any, args: Sequence[Any], kwargs: Mapping[str, Any]) -> Any:
        if isinstance(fn, GuardedFunction):
            # A guarded function reached through another contract layer.
            return fn.invoke(Interp._apply_raw, args, kwargs)
        if isinstance(fn, Closure):
            if kwargs:
                raise ShillRuntimeError(
                    f"{fn.display_name} does not accept keyword arguments"
                )
            if len(args) != len(fn.params):
                raise _arity_error(fn, args)
            return fn.code(fn.env, args)
        if isinstance(fn, BuiltinFunction):
            return fn.fn(*args, **kwargs)
        if callable(fn):
            return fn(*args, **kwargs)
        raise ShillRuntimeError(f"not a function: {fn!r}")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    @staticmethod
    def exec_stmts(stmts: Sequence[A.Stmt], env: Env) -> Any:
        """Compile a module body and run it in ``env``, its top-level
        frame; returns the last statement's value.  Capability-safe
        scripts loaded through :mod:`repro.lang.modules` reuse a cached
        compilation instead (:func:`repro.lang.modules.compile_module`)."""
        return compile_stmts(stmts)(env)


def _arity_error(fn: Closure, args: Sequence[Any]) -> ShillRuntimeError:
    return ShillRuntimeError(
        f"{fn.display_name} expects {len(fn.params)} argument(s), got {len(args)}"
    )


def _call(fn: Any, args: list) -> Any:
    """Apply ``fn`` to positional ``args``: :meth:`Interp.apply` with the
    two common cases taken first."""
    kind = type(fn)
    if kind is Closure:
        if len(args) != len(fn.params):
            raise _arity_error(fn, args)
        return fn.code(fn.env, args)
    if kind is BuiltinFunction:
        return fn.fn(*args)
    return Interp.apply(fn, args, {})


# ----------------------------------------------------------------------
# scopes (compile time only)
# ----------------------------------------------------------------------


class _Scope:
    """What the compiler knows about one runtime frame.

    ``fixed`` names are bound when the frame is made (parameters, the
    loop variable).  ``first_def`` maps a name to the index of the first
    statement of this scope that defines it unconditionally;
    ``cond_def`` to the first statement that may define it (a definition
    under an ``if``).  ``pos`` is the statement being compiled.  The
    module scope is the root: its frame is the environment the module
    runs in, whose names (builtins, imports) are only known at run time.
    """

    __slots__ = ("parent", "fixed", "first_def", "cond_def", "framed", "is_fun", "pos")

    def __init__(self, parent: "_Scope | None", stmts: Sequence[A.Stmt] = (),
                 fixed: Sequence[str] = (), is_fun: bool = False) -> None:
        self.parent = parent
        self.fixed = frozenset(fixed)
        self.first_def: dict[str, int] = {}
        self.cond_def: dict[str, int] = {}
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, A.Def):
                self.first_def.setdefault(stmt.name, index)
            for name in _nested_defs(stmt):
                self.cond_def.setdefault(name, index)
        self.framed = parent is None or bool(self.fixed or self.first_def or self.cond_def)
        self.is_fun = is_fun
        self.pos = 0


def _nested_defs(node: Any) -> Iterator[str]:
    """Names that ``node`` may define into its own frame other than as a
    top-level definition: definitions reached through ``if`` branches or
    inside expressions.  Function bodies, blocks and loop bodies have
    frames of their own and are not searched."""
    if isinstance(node, A.Def):
        children: Sequence[Any] = (node.expr,)
    elif isinstance(node, A.ExprStmt):
        children = (node.expr,)
    elif isinstance(node, A.If):
        children = (node.cond, node.then, node.otherwise)
    elif isinstance(node, A.For):
        children = (node.iterable,)
    elif isinstance(node, A.Call):
        children = (node.fn, *node.args, *(value for _, value in node.kwargs))
    elif isinstance(node, A.UnOp):
        children = (node.operand,)
    elif isinstance(node, A.BinOp):
        children = (node.left, node.right)
    elif isinstance(node, A.ListLit):
        children = node.items
    else:
        children = ()
    for child in children:
        if isinstance(child, A.Def):
            yield child.name
        if child is not None:
            yield from _nested_defs(child)


# ----------------------------------------------------------------------
# compiling statements
# ----------------------------------------------------------------------


def compile_stmts(stmts: Sequence[A.Stmt]) -> Code:
    """Compile a module body: the code runs it in the module's frame and
    returns the last statement's value."""
    # The module scope's names are looked up at run time: no scan.
    return _compile_stmts(stmts, _Scope(None))


def _compile_stmts(stmts: Sequence[A.Stmt], scope: _Scope) -> Code:
    codes = []
    for index, stmt in enumerate(stmts):
        scope.pos = index
        codes.append(_compile_stmt(stmt, scope))

    def run(env: Env) -> Any:
        result = VOID
        for code in codes:
            result = code(env)
        return result
    return run


def _compile_stmt(stmt: Any, scope: _Scope) -> Code:
    if isinstance(stmt, A.Def):
        return _compile_def(stmt, scope)
    if isinstance(stmt, A.ExprStmt):
        return _compile_expr(stmt.expr, scope)
    if isinstance(stmt, A.If):
        return _compile_if(stmt, scope)
    if isinstance(stmt, A.For):
        return _compile_for(stmt, scope)
    if isinstance(stmt, A.Block):
        return _compile_block(stmt, scope)
    return _raiser(f"unknown statement {stmt!r}")


def _raiser(message: str) -> Code:
    def fail(env: Env) -> Any:
        raise ShillRuntimeError(message)
    return fail


def _compile_def(stmt: A.Def, scope: _Scope) -> Code:
    name = stmt.name
    value = _compile_expr(stmt.expr, scope)

    def define(env: Env) -> Any:
        # Reserve the name first, so a recursive right-hand side can
        # refer to it (the knot is tied when the definition completes).
        env.define(name, _PENDING)
        result = value(env)
        if isinstance(result, Closure) and not result.name:
            result.name = name
        env.complete_definition(name, result)
        return VOID
    return define


def _compile_if(node: A.If, scope: _Scope) -> Code:
    cond = _compile_expr(node.cond, scope)
    then = _compile_stmt(node.then, scope)
    otherwise = (_compile_stmt(node.otherwise, scope) if node.otherwise is not None
                 else lambda env: VOID)

    def branch(env: Env) -> Any:
        if truthy(cond(env)):
            return then(env)
        return otherwise(env)
    return branch


def _compile_for(node: A.For, scope: _Scope) -> Code:
    iterable = _compile_expr(node.iterable, scope)
    var = node.var
    body = _compile_stmts(node.body.stmts, _Scope(scope, node.body.stmts, fixed=(var,)))

    def loop(env: Env) -> Any:
        items = iterable(env)
        if not isinstance(items, (list, tuple)):
            raise ShillRuntimeError(f"for expects a list, got {items!r}")
        for item in items:
            frame = Env(env)
            frame.define(var, item)
            body(frame)
        return VOID
    return loop


def _compile_block(block: A.Block, scope: _Scope) -> Code:
    inner = _Scope(scope, block.stmts)
    body = _compile_stmts(block.stmts, inner)
    if not inner.framed:
        return body
    return lambda env: body(Env(env))


# ----------------------------------------------------------------------
# compiling expressions
# ----------------------------------------------------------------------


def _compile_expr(expr: Any, scope: _Scope) -> Code:
    if isinstance(expr, A.Lit):
        value = expr.value
        return lambda env: value
    if isinstance(expr, A.Var):
        return _compile_var(expr.name, scope)
    if isinstance(expr, A.ListLit):
        items = [_compile_expr(item, scope) for item in expr.items]
        return lambda env: [item(env) for item in items]
    if isinstance(expr, A.Fun):
        return _compile_fun(expr, scope)
    if isinstance(expr, A.Call):
        return _compile_call(expr, scope)
    if isinstance(expr, A.UnOp):
        return _compile_unop(expr, scope)
    if isinstance(expr, A.BinOp):
        return _compile_binop(expr, scope)
    if isinstance(expr, A.If):
        return _compile_if(expr, scope)
    if isinstance(expr, A.Block):
        return _compile_block(expr, scope)
    return _raiser(f"unknown expression {expr!r}")


def _pending_error(name: str) -> ShillRuntimeError:
    return ShillRuntimeError(f"variable {name!r} used before its definition completed")


def _compile_var(name: str, scope: _Scope) -> Code:
    depth = 0
    inside_fun = False
    while scope.parent is not None:
        if name in scope.fixed:
            return _frame_var(name, depth)
        first = scope.first_def.get(name)
        if first is not None and first <= scope.pos:
            # Defined (or being defined) before this reference runs.
            return _frame_var(name, depth)
        cond = scope.cond_def.get(name)
        if first is not None or cond is not None:
            if inside_fun or (cond is not None and cond <= scope.pos):
                # A closure may run before or after the definition, and
                # a conditional definition may or may not have run.
                return _chain_var(name)
            # Defined only after this reference: not bound here yet.
        if scope.framed:
            depth += 1
        inside_fun = inside_fun or scope.is_fun
        scope = scope.parent
    return _module_var(name, depth)


def _frame_var(name: str, depth: int) -> Code:
    """A binding known to be in the frame ``depth`` links up."""
    def lookup(env: Env) -> Any:
        for _ in range(depth):
            env = env._parent
        value = env._frame[name]
        if value is _PENDING:
            raise _pending_error(name)
        return value
    return lookup


def _module_var(name: str, depth: int) -> Code:
    """A name no enclosing function or block defines: the module frame
    ``depth`` links up holds it, or it is unbound."""
    def lookup(env: Env) -> Any:
        for _ in range(depth):
            env = env._parent
        value = env._frame.get(name, _MISSING)
        if value is _MISSING:
            value = env.lookup(name)        # the module's parents, or unbound
        if value is _PENDING:
            raise _pending_error(name)
        return value
    return lookup


def _chain_var(name: str) -> Code:
    def lookup(env: Env) -> Any:
        value = env.lookup(name)
        if value is _PENDING:
            raise _pending_error(name)
        return value
    return lookup


def _compile_fun(fun: A.Fun, scope: _Scope) -> Code:
    name = fun.name
    params = fun.params
    code = _compile_fun_body(fun, scope)

    def make(env: Env) -> Closure:
        return Closure(name, list(params), env, code)
    return make


def _compile_fun_body(fun: A.Fun, scope: _Scope) -> Callable[[Env, Sequence[Any]], Any]:
    """``code(captured_env, args)`` for a closure; arity is checked by
    the caller.  The arguments are bound in a frame of their own (a
    repeated parameter name is a duplicate-definition error at call
    time) and the body runs as a block below it, so a body definition
    may shadow a parameter."""
    params = fun.params
    outer = _Scope(scope, fixed=params, is_fun=True)
    block = _compile_block(fun.body, outer)
    if not outer.framed:
        return lambda env, args: block(env)

    def bind(env: Env, args: Sequence[Any]) -> Any:
        frame = Env(env)
        for param, value in zip(params, args):
            frame.define(param, value)
        return block(frame)
    return bind


def _compile_call(expr: A.Call, scope: _Scope) -> Code:
    # Evaluation order: the function, then arguments left to right,
    # then keyword arguments.
    fn = _compile_expr(expr.fn, scope)
    args = [_compile_expr(arg, scope) for arg in expr.args]
    if expr.kwargs:
        kwargs = [(key, _compile_expr(value, scope)) for key, value in expr.kwargs]

        def call_kw(env: Env) -> Any:
            target = fn(env)
            values = [arg(env) for arg in args]
            return Interp.apply(target, values, {key: value(env) for key, value in kwargs})
        return call_kw
    return lambda env: _call(fn(env), [arg(env) for arg in args])


def _compile_unop(expr: A.UnOp, scope: _Scope) -> Code:
    operand = _compile_expr(expr.operand, scope)
    if expr.op == "!":
        return lambda env: not truthy(operand(env))
    if expr.op == "-":
        def minus(env: Env) -> Any:
            value = operand(env)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ShillRuntimeError(f"unary - on non-number {value!r}")
            return -value
        return minus
    message = f"unknown unary operator {expr.op!r}"

    def unknown(env: Env) -> Any:
        operand(env)
        raise ShillRuntimeError(message)
    return unknown


def _compile_binop(expr: A.BinOp, scope: _Scope) -> Code:
    op = expr.op
    left = _compile_expr(expr.left, scope)
    right = _compile_expr(expr.right, scope)
    if op == "&&":
        return lambda env: truthy(left(env)) and truthy(right(env))
    if op == "||":
        return lambda env: truthy(left(env)) or truthy(right(env))
    if op == "==":
        return lambda env: left(env) == right(env)
    if op == "!=":
        return lambda env: left(env) != right(env)
    if op == "+":
        def plus(env: Env) -> Any:
            a = left(env)
            b = right(env)
            if isinstance(a, str) and isinstance(b, str):
                return a + b
            return _arith("+", a, b)
        return plus
    if op in ("-", "*", "/", "%"):
        return lambda env: _arith(op, left(env), right(env))
    if op in _COMPARE:
        compare = _COMPARE[op]

        def ordered(env: Env) -> Any:
            a = left(env)
            b = right(env)
            _require_num(a, op)
            _require_num(b, op)
            return compare(a, b)
        return ordered
    message = f"unknown operator {op!r}"

    def unknown(env: Env) -> Any:
        left(env)
        right(env)
        raise ShillRuntimeError(message)
    return unknown


_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def _arith(op: str, left: Any, right: Any) -> Any:
    _require_num(left, op)
    _require_num(right, op)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ShillRuntimeError("division by zero")
        result = left / right
        if isinstance(left, int) and isinstance(right, int) and left % right == 0:
            return int(result)
        return result
    if op == "%":
        if right == 0:
            raise ShillRuntimeError("modulo by zero")
        return left % right
    raise AssertionError(op)


def _require_num(value: Any, op: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ShillRuntimeError(f"operator {op!r} expects numbers, got {value!r}")
