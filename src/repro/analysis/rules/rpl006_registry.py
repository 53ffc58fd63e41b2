"""RPL006: the scheme-registry contract.

Every ``@register``-ed scheme family states its protocol once, as
``protocol(d, ctx)``: pricing, bucket pricing, the executed round's timeline
and its reported seconds are all derived from that stage list, so a family
without it cannot be priced at all.  The family must also bring its batched
kernel: either ``_aggregate_batched`` (the numerics the base class's
validate-and-dispatch ``aggregate``/``aggregate_matrix`` run) or its own
``aggregate_matrix`` (wrappers with their own dispatch, like error
feedback).  The base ``_aggregate_batched`` only raises, so a family that
forgets it still imports and prices, then fails on its first executed round.

This semantic pass over class bodies requires each ``@register``-ed class
to define both, or to state an inheritance explicitly::

    class MyScheme(OtherScheme):
        # the parent's numerics are right for this variant
        _aggregate_batched = OtherScheme._aggregate_batched

so "uses an inherited implementation" is always a reviewed decision, never
an accident.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import rule
from repro.analysis.rules.base import decorator_base_name

#: Each entry is a method name, or a tuple of alternatives one of which must
#: be defined.
_REQUIRED = ("protocol", ("_aggregate_batched", "aggregate_matrix"))


def _register_decorator(node: ast.ClassDef) -> bool:
    return any(
        decorator_base_name(decorator) == "register" for decorator in node.decorator_list
    )


def _defined_names(node: ast.ClassDef) -> set[str]:
    """Method defs and explicit-inheritance assignments in the class body."""
    names: set[str] = set()
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(statement.name)
        elif isinstance(statement, ast.Assign):
            names.update(
                target.id
                for target in statement.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            names.add(statement.target.id)
    return names


@rule(
    "RPL006",
    name="registry-contract",
    invariant=(
        "every @register-ed scheme defines protocol and a batched kernel "
        "(_aggregate_batched, or its own aggregate_matrix), or explicitly "
        "inherits them (`name = Base.name`) so the default is a reviewed decision"
    ),
    default_paths=("src/repro",),
    default_options={"required_methods": _REQUIRED},
)
class RegistryContractRule:
    def check(self, tree: ast.AST, ctx) -> Iterator[Finding]:
        required = tuple(ctx.options.get("required_methods", _REQUIRED))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _register_decorator(node):
                continue
            defined = _defined_names(node)
            missing = [
                " or ".join(names)
                for names in (
                    (entry,) if isinstance(entry, str) else tuple(entry)
                    for entry in required
                )
                if not defined.intersection(names)
            ]
            if missing:
                yield ctx.finding(
                    node,
                    f"@register-ed scheme `{node.name}` neither defines nor "
                    f"explicitly inherits: {', '.join(missing)}; add the "
                    "implementation or state the inheritance "
                    "(`method = Base.method`) so the default is deliberate",
                )
