"""Function contracts: preconditions on arguments, postcondition on the result.

"Each function contract has two parts: the precondition and the
postcondition. ... the consumer's obligations are to supply function
arguments that satisfy the precondition, and the provider must produce a
result that satisfies the postcondition" (section 2.2).

A :class:`GuardedFunction` is the proxy a function contract wraps around
a closure: at every application it projects the arguments through the
parameter contracts (with blame swapped — the *caller* provides
arguments) and the result through the result contract.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.contracts.blame import Blame
from repro.contracts.core import AnyContract, Contract

ApplyFn = Callable[[Any, Sequence[Any], Mapping[str, Any]], Any]


class FunctionContract(Contract):
    """``{x : C1, y : C2} -> R`` (or anonymous ``C -> R``)."""

    def __init__(
        self,
        params: Sequence[tuple[str, Contract]],
        result: Contract,
        kwparams: Mapping[str, Contract] | None = None,
    ) -> None:
        self.params = list(params)
        self.result = result
        self.kwparams = dict(kwparams or {})

    def describe(self) -> str:
        pre = ", ".join(f"{n} : {c.describe()}" for n, c in self.params)
        return f"{{{pre}}} -> {self.result.describe()}"

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.describe()

    def check(self, value: Any, blame: Blame) -> Any:
        if not _is_callable_value(value):
            raise blame.named(self.describe()).blame_positive(
                f"expected a function, got {type(value).__name__}"
            )
        return GuardedFunction(value, self, blame.named(self.describe()))

    # -- application-time projection ------------------------------------------------

    def project_args(
        self, args: Sequence[Any], kwargs: Mapping[str, Any], blame: Blame
    ) -> tuple[list[Any], dict[str, Any]]:
        if len(args) != len(self.params):
            raise blame.blame_negative(
                f"arity mismatch: expected {len(self.params)} argument(s), got {len(args)}"
            )
        arg_blame = blame.swap()
        checked = [
            contract.check(arg, arg_blame)
            for (name, contract), arg in zip(self.params, args)
        ]
        checked_kwargs: dict[str, Any] = {}
        for key, val in kwargs.items():
            contract = self.kwparams.get(key, AnyContract())
            checked_kwargs[key] = contract.check(val, arg_blame)
        return checked, checked_kwargs

    def project_result(self, value: Any, blame: Blame) -> Any:
        return self.result.check(value, blame)


class GuardedFunction:
    """A contract proxy around a callable value.

    The interpreter applies it via :meth:`invoke`, passing its own
    application procedure — contracts stay independent of the evaluator.
    """

    def __init__(self, target: Any, contract: FunctionContract, blame: Blame) -> None:
        self.target = target
        self.contract = contract
        self.blame = blame

    def invoke(self, apply_fn: ApplyFn, args: Sequence[Any], kwargs: Mapping[str, Any]) -> Any:
        contract = self._instantiated()
        checked_args, checked_kwargs = contract.project_args(args, kwargs, self.blame)
        result = apply_fn(self.target, checked_args, checked_kwargs)
        return contract.project_result(result, self.blame)

    def _instantiated(self) -> FunctionContract:
        """Hook for polymorphic wrappers; plain contracts are returned as-is."""
        return self.contract

    @property
    def display_name(self) -> str:
        return getattr(self.target, "display_name", getattr(self.target, "name", "<function>"))

    def __repr__(self) -> str:
        return f"<guarded {self.display_name} : {self.contract.describe()}>"


def _is_callable_value(value: Any) -> bool:
    """Callable SHILL values: closures, builtins, guarded functions, or
    plain Python callables used by the stdlib."""
    if isinstance(value, GuardedFunction):
        return True
    if callable(value):
        return True
    return hasattr(value, "params") and hasattr(value, "code")
