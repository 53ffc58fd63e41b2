"""The compositional scheme-specification language.

The paper's argument is that gradient-compression schemes must be judged
across *many* configurations; a registry of hand-picked factory names cannot
express that space.  This module provides the compositional alternative: a
small, typed specification language in which every scheme configuration is a
string such as

    ``baseline(p=fp16)``
    ``topkc(b=2, perm=true)``
    ``thc(q=4, rot=partial, agg=sat)``
    ``ef(topk(b=0.5))``

Scheme classes declare their spec-language surface with the :func:`register`
decorator, listing their parameters (:class:`Param`) with types, constructor
keywords, and defaults.  The module then provides, uniformly for every
registered family:

* :func:`parse_spec` -- parse a spec string into a :class:`ParsedSpec` tree
  (wrapper schemes such as error feedback nest their inner scheme);
* :func:`build_spec` -- instantiate the parsed tree into an
  :class:`~repro.compression.base.AggregationScheme`;
* ``scheme.spec()`` -- the canonical, round-trippable spec string of a live
  scheme instance (implemented generically on the base class);
* :func:`family_signature` -- a human-readable signature for introspection.

A spec is one term of the grammar core (:mod:`repro.grammar`), whose
values may be numbers, booleans, names or nested terms.  This module adds
the scheme extensions: wrapper families nest their inner scheme, enum
parameters accept unambiguous prefixes (``agg=sat`` means
``agg=saturation``), and bare names resolve through the registry's legacy
aliases (``topkc_b2``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable

from repro import grammar
from repro.grammar import ALWAYS, Term


class UnknownSchemeError(grammar.UnknownNameError):
    """An unknown scheme name or family (a :class:`KeyError`), with suggestions."""

    noun = "scheme"


class SpecSyntaxError(grammar.GrammarSyntaxError):
    """A spec string that does not conform to the grammar."""

    subject = "scheme spec"


class SpecParamError(grammar.GrammarParamError):
    """A well-formed spec whose arguments do not fit the family's parameters."""


def _is_enum(kind: type) -> bool:
    return isinstance(kind, type) and issubclass(kind, enum.Enum)


@dataclass(frozen=True)
class Param(grammar.Param):
    """One typed, introspectable parameter of a scheme family.

    The grammar core's parameter (:class:`repro.grammar.Param`: name, kind,
    constructor keyword, read-back attribute, spec-level default, doc)
    extended with :class:`enum.Enum` kinds: an enum parameter accepts the
    enum's value, its member name, or any unambiguous prefix (``agg=sat``
    means ``agg=saturation``).
    """

    def coerce(self, value: object, family: str, error: type[grammar.GrammarParamError]) -> object:
        """Coerce a parsed literal onto this parameter's type."""
        if not _is_enum(self.kind):
            return super().coerce(value, family, error)
        members: list[enum.Enum] = list(self.kind)
        if isinstance(value, self.kind):
            return value
        text = str(value).lower()
        for member in members:
            if text in (str(member.value).lower(), member.name.lower()):
                return member
        prefix_matches = [m for m in members if str(m.value).lower().startswith(text)]
        if len(prefix_matches) == 1:
            return prefix_matches[0]
        choices = ", ".join(str(m.value) for m in members)
        message = (
            f"{family}: parameter {self.name!r} expects one of [{choices}], got {value!r}"
        )
        suggestions = grammar.close_matches(
            text, [str(m.value).lower() for m in members], n=1
        )
        if suggestions:
            message += f"; did you mean {suggestions[0]!r}?"
        raise error(message)

    def render(self, value: object) -> str:
        """Format a coerced value back into spec-string syntax."""
        if isinstance(value, enum.Enum):
            return str(value.value)
        return super().render(value)

    def kind_label(self) -> str:
        if _is_enum(self.kind):
            return "{" + ",".join(str(m.value) for m in self.kind) + "}"
        return super().kind_label()

    def signature_fragment(self) -> str:
        fragment = f"{self.name}: {self.kind_label()}"
        if self.default is not ALWAYS:
            fragment += f" = {self.render(self.default)}"
        return fragment


@dataclass(frozen=True)
class SchemeFamily(grammar.Family):
    """A registered scheme family: a class plus its spec-language surface.

    Attributes:
        name: The family name used in spec strings (``topkc``, ``thc``...).
        cls: The :class:`AggregationScheme` subclass this family builds.
        params: Declared parameters, in canonical rendering order.
        wraps: Whether the family wraps another scheme (error feedback); the
            wrapped scheme is the spec's first positional scheme argument.
        wrapped_attr: Instance attribute holding the wrapped scheme.
        description: One-line description for listings.
    """

    wraps: bool = False
    wrapped_attr: str = "scheme"
    description: str = ""

    def build(self, args: tuple[tuple[str | None, object], ...], build_inner: Callable[[object], object]):
        """Instantiate the family from parsed arguments.

        A wrapper family takes its first positional scheme argument (a
        nested spec or a bare alias name) as the wrapped scheme and binds
        the rest to its parameters.
        """
        if not self.wraps:
            return super().build(args)
        for index, (key, value) in enumerate(args):
            if key is None and isinstance(value, (Term, str)):
                rest = args[:index] + args[index + 1 :]
                return super().build(rest, build_inner(value))
        raise SpecParamError(
            f"{self.name}: wrapper families need an inner scheme, "
            f"e.g. {self.name}(topk(b=2))"
        )

    def format_instance(self, instance: object) -> str:
        """The canonical spec string of a live instance (round-trippable)."""
        if self.wraps:
            return self.render(instance, getattr(instance, self.wrapped_attr).spec())
        return self.render(instance)

    def signature(self) -> str:
        """Human-readable signature, e.g. ``thc(q: int, b: int, rot: {...})``."""
        fragments = ["<scheme>"] if self.wraps else []
        fragments.extend(param.signature_fragment() for param in self.params)
        return f"{self.name}({', '.join(fragments)})"


#: The scheme language.  Scheme families are not looked up through the
#: table's error path: :func:`build_spec` falls back to registry aliases
#: first, and suggests from families and aliases alike.
SCHEMES = grammar.Language(
    SpecSyntaxError, SpecParamError, UnknownSchemeError, term_label="a scheme name"
)


# --------------------------------------------------------------------------- #
# The family registry
# --------------------------------------------------------------------------- #

_FAMILIES = SCHEMES.families

_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def register(
    name: str,
    *,
    params: tuple[Param, ...] | list[Param] = (),
    wraps: bool = False,
    wrapped_attr: str = "scheme",
    description: str = "",
):
    """Class decorator registering an :class:`AggregationScheme` family.

    Usage::

        @register("topk", params=[Param("b", float, "bits_per_coordinate")])
        class TopKCompressor(AggregationScheme):
            ...

    The decorated class gains a working ``spec()`` method (via the base
    class), and the family becomes constructible from spec strings.

    Raises:
        ValueError: If the name is malformed or already registered.
    """
    if not _NAME_RE.match(name):
        raise ValueError(
            f"family name {name!r} must be a lowercase identifier ([a-z_][a-z0-9_]*)"
        )

    def decorate(cls: type) -> type:
        if name in _FAMILIES:
            raise ValueError(f"scheme family {name!r} is already registered")
        doc_lines = (cls.__doc__ or "").strip().splitlines()
        SCHEMES.add(
            SchemeFamily(
                name=name,
                cls=cls,
                params=tuple(params),
                language=SCHEMES,
                wraps=wraps,
                wrapped_attr=wrapped_attr,
                description=description or (doc_lines[0] if doc_lines else ""),
            )
        )
        return cls

    return decorate


def unregister_family(name: str) -> None:
    """Remove a registered family (intended for tests and notebooks)."""
    family = _FAMILIES.pop(name, None)
    if family is not None and getattr(family.cls, "_spec_family", None) is family:
        del family.cls._spec_family


def available_families() -> list[str]:
    """Registered family names, sorted."""
    return sorted(_FAMILIES)


def get_family(name: str) -> SchemeFamily:
    """Look up a family by name.

    Raises:
        UnknownSchemeError: If no family with that name exists (suggestions
            are drawn from families and registry aliases).
    """
    try:
        return _FAMILIES[name]
    except KeyError:
        raise UnknownSchemeError(name, _known_names()) from None


def family_signature(name: str) -> str:
    """The introspectable signature of one family."""
    return get_family(name).signature()


def family_signatures() -> dict[str, str]:
    """Signatures of every registered family, keyed by family name."""
    return {name: _FAMILIES[name].signature() for name in available_families()}


def _known_names() -> list[str]:
    """Every name a spec could legally start with (families + aliases)."""
    names = set(_FAMILIES)
    # Late import: registry depends on this module, not the other way round.
    from repro.compression import registry

    names.update(registry.available_schemes())
    return sorted(names)


# --------------------------------------------------------------------------- #
# Parsing and building
# --------------------------------------------------------------------------- #

#: The AST of one spec string: a family name plus ``(key, value)``
#: arguments, values being literals or nested terms (wrapper composition).
ParsedSpec = Term


def parse_spec(text: str) -> ParsedSpec:
    """Parse a spec string into its AST.

    Raises:
        SpecSyntaxError: If the string does not conform to the grammar.
    """
    if not isinstance(text, str) or not text.strip():
        raise SpecSyntaxError(str(text), 0, "empty scheme spec")
    parser = grammar.Parser(text.strip(), SCHEMES)
    term = parser.term()
    if not parser.at_end():
        parser.fail(f"trailing input after spec: {parser.got()!r}")
    return term


def build_spec(spec: ParsedSpec | str):
    """Instantiate an :class:`AggregationScheme` from a spec (string or AST).

    Bare names are first resolved through the registry's legacy aliases and
    custom factories, so ``build_spec("topkc_b2")`` and
    ``build_spec("ef(topkc_b2)")`` both work.

    Raises:
        UnknownSchemeError: Unknown family or alias.
        SpecSyntaxError: Malformed spec string.
        SpecParamError: Arguments not matching the family's parameters.
    """
    from repro.compression import registry

    if isinstance(spec, str):
        resolved = registry.resolve_name(spec.strip())
        if resolved is not None:
            return resolved()
        try:
            spec = parse_spec(spec)
        except SpecSyntaxError:
            # A bare, parenthesis-free name that merely fails the spec
            # grammar (e.g. a dotted legacy-style name) is an unknown scheme
            # name, not a syntax error.
            if spec.strip() and "(" not in spec and ")" not in spec:
                raise UnknownSchemeError(spec.strip(), _known_names()) from None
            raise

    family = _FAMILIES.get(spec.family)
    if family is None:
        if not spec.args:
            resolved = registry.resolve_name(spec.family)
            if resolved is not None:
                return resolved()
        raise UnknownSchemeError(spec.family, _known_names())
    return family.build(spec.args, build_inner=build_spec)


def canonical_spec(text: str) -> str:
    """The canonical form of a spec string (or alias): build, then format."""
    return build_spec(text).spec()
