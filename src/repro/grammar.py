"""The one grammar core behind the repository's spec languages.

Three small languages name configurations as strings:

* compression schemes, ``thc(q=4, rot=partial, agg=sat)``
  (:mod:`repro.compression.spec`);
* dynamic-event scenarios, ``slowdown(w=3, x=4)@5..20 + churn(p=0.1)``
  (:mod:`repro.simulator.scenario`);
* fault-recovery policies, ``timeout(k=3) + drop(max_workers=1)``
  (:mod:`repro.simulator.recovery`).

All three are built from one term (whitespace-insensitive)::

    term   := NAME [ "(" [ arg ("," arg)* ] ")" ]
    arg    := NAME "=" value | value
    value  := NUMBER | BOOL | NAME | term        (schemes)
    value  := NUMBER                             (scenarios and policies)

and each language adds a little on top:

* schemes nest terms (wrappers such as ``ef(topk(b=2))``), accept enum
  prefixes (``agg=sat``) and resolve registry aliases (``topkc_b2``);
* scenarios and policies join terms with ``+``;
* scenario terms take a half-open round window ``@A..B`` (``@A`` means
  "from round A on"); policy terms reject windows.

This module states the shared parts once: the term :class:`Parser`
(syntax errors carry a caret), typed :class:`Param` entries with aliases,
defaults and required markers, positional and keyword binding
(:meth:`Family.bind`), exact number formatting (:func:`format_number`),
and the three error kinds each language subclasses.  A language is a
:class:`Language`: its error classes plus a table of :class:`Family`
entries.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, NoReturn, TypeVar

T = TypeVar("T")


# --------------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------------- #


def close_matches(word: str, choices: Iterable[str], n: int = 3) -> list[str]:
    """Up to ``n`` of ``choices`` that look like ``word`` ("did you mean")."""
    return difflib.get_close_matches(word, list(choices), n=n, cutoff=0.5)


class UnknownNameError(KeyError):
    """An unknown name, with close-match suggestions.

    Subclasses :class:`KeyError` so ``except KeyError`` handlers keep
    working; each language names what was unknown through :attr:`noun`.
    """

    noun = "name"

    def __init__(self, name: str, known: Iterable[str]):
        self.name = name
        self.known = sorted(known)
        self.suggestions = close_matches(self._match_key(name), self.known)
        message = f"unknown {self.noun} {name!r}"
        if self.suggestions:
            message += f"; did you mean: {', '.join(self.suggestions)}?"
        message += f" (known: {', '.join(self.known)})"
        super().__init__(message)

    @staticmethod
    def _match_key(name: str) -> str:
        """The spelling compared against the known names."""
        return name

    def __str__(self) -> str:  # KeyError.__str__ shows the repr of args[0]
        return self.args[0]


class GrammarSyntaxError(ValueError):
    """Spec text that does not conform to the grammar, with a caret."""

    subject = "spec"

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        pointer = " " * position + "^"
        super().__init__(f"invalid {self.subject}: {reason}\n  {text}\n  {pointer}")


class GrammarParamError(ValueError):
    """A well-formed term whose arguments do not fit its family."""


# --------------------------------------------------------------------------- #
# Values
# --------------------------------------------------------------------------- #


def format_number(value: float) -> str:
    """The shortest spelling that parses back to exactly ``value``.

    ``%g`` keeps common specs tidy (``x=4``, not ``x=4.0``) but only carries
    six significant digits; when that would lose precision -- and break the
    round-trip contract -- fall back to the exact ``repr``.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def render_value(value: object) -> str:
    """Spell a parsed or coerced value in spec syntax."""
    if isinstance(value, Term):
        return value.format()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    return str(value)


@dataclass(frozen=True)
class Term:
    """One parsed ``name(args)`` term: a family name plus its arguments.

    ``args`` holds ``(key, value)`` pairs, ``key`` being ``None`` for a
    positional argument.  Values are numbers, booleans, bare names or
    nested terms.
    """

    family: str
    args: tuple[tuple[str | None, object], ...] = ()

    def format(self) -> str:
        """Spell the term back in spec syntax (not necessarily canonical)."""
        if not self.args:
            return self.family
        rendered = []
        for key, value in self.args:
            text = render_value(value)
            rendered.append(text if key is None else f"{key}={text}")
        return f"{self.family}({', '.join(rendered)})"


# --------------------------------------------------------------------------- #
# Parameters and families
# --------------------------------------------------------------------------- #


class _AlwaysType:
    """Sentinel: the parameter has no spec-level default and is always rendered."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ALWAYS"


#: Default marker for parameters the canonical form always spells out.
ALWAYS = _AlwaysType()


@dataclass(frozen=True)
class Param:
    """One typed parameter of a family.

    Attributes:
        name: Canonical key in spec strings (short, e.g. ``q``).
        kind: ``int``, ``float``, ``bool`` or ``str``; parsed values are
            coerced to it.
        kwarg: Constructor keyword the value is passed as (defaults to
            ``name``).
        attr: Instance attribute read back when rendering the canonical
            form (defaults to ``kwarg``).
        default: Spec-level default.  The canonical form omits the
            parameter when the instance holds this value; :data:`ALWAYS`
            means the parameter is always rendered.
        doc: One-line description for signatures.
        aliases: Other accepted keys (``worker`` for ``w``).
        required: Whether a term must give the parameter.
    """

    name: str
    kind: type
    kwarg: str | None = None
    attr: str | None = None
    default: object = ALWAYS
    doc: str = ""
    aliases: tuple[str, ...] = ()
    required: bool = False

    @property
    def constructor_keyword(self) -> str:
        return self.kwarg if self.kwarg is not None else self.name

    @property
    def attribute(self) -> str:
        return self.attr if self.attr is not None else self.constructor_keyword

    def kind_label(self) -> str:
        return self.kind.__name__

    def coerce(self, value: object, family: str, error: type[GrammarParamError]) -> object:
        """Coerce a parsed literal onto this parameter's type."""
        kind = self.kind
        if isinstance(value, bool):
            if kind is bool:
                return value
        elif kind is float and isinstance(value, (int, float)):
            return float(value)
        elif kind is bool and isinstance(value, int) and value in (0, 1):
            return bool(value)
        elif isinstance(value, kind):
            return value
        raise error(
            f"{family}: parameter {self.name!r} expects {self.kind_label()}, got {value!r}"
        )

    def render(self, value: object) -> str:
        """Spell a coerced value back in spec syntax."""
        return render_value(value)


@dataclass(frozen=True)
class Family:
    """One named term of a language: the class it builds and its parameters.

    Attributes:
        name: Canonical family name.
        cls: Class built from the bound arguments.
        language: The language whose errors this family raises.
        params: Parameters in canonical order (also the positional order).
        aliases: Other accepted family names.
    """

    name: str
    cls: type
    language: Language = field(compare=False, repr=False)
    params: tuple[Param, ...] = ()
    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for param in self.params:
            for key in (param.name, *param.aliases):
                if key in seen:
                    raise ValueError(f"family {self.name!r} declares {key!r} twice")
                seen.add(key)

    def _error(self, reason: str) -> GrammarParamError:
        return self.language.param_error(f"{self.name}: {reason}")

    def param_named(self, key: str) -> Param:
        for param in self.params:
            if key == param.name or key in param.aliases:
                return param
        valid = ", ".join(p.name for p in self.params) or "(none)"
        raise self._error(f"unknown parameter {key!r}; valid parameters: {valid}")

    def bind(self, args: Iterable[tuple[str | None, object]]) -> dict[str, object]:
        """Match arguments to parameters and coerce them.

        Positional arguments bind in declaration order; keyword arguments
        by name or alias.  Every parameter binds at most once, and every
        required one must bind.  Returns the constructor keyword arguments.
        """
        kwargs: dict[str, object] = {}
        cursor = 0
        for key, value in args:
            if key is None:
                if cursor >= len(self.params):
                    raise self._error(
                        f"too many positional arguments (takes {len(self.params)})"
                    )
                param = self.params[cursor]
                cursor += 1
            else:
                param = self.param_named(key)
            keyword = param.constructor_keyword
            if keyword in kwargs:
                raise self._error(f"parameter {param.name!r} given twice")
            kwargs[keyword] = param.coerce(value, self.name, self.language.param_error)
        for param in self.params:
            if param.required and param.constructor_keyword not in kwargs:
                raise self._error(f"missing required parameter {param.name!r}")
        return kwargs

    def build(self, args: Iterable[tuple[str | None, object]], *leading: object, **extra: object):
        """Instantiate ``cls`` from bound arguments.

        ``leading`` positional values and ``extra`` keywords pass straight
        to the constructor; a ``ValueError`` it raises becomes this
        language's parameter error.
        """
        kwargs = self.bind(args)
        try:
            return self.cls(*leading, **kwargs, **extra)
        except ValueError as error:
            raise self._error(str(error)) from None

    def render(self, instance: object, *leading: str) -> str:
        """The canonical term of ``instance``: ``leading`` parts, then params."""
        parts = list(leading)
        for param in self.params:
            value = getattr(instance, param.attribute)
            if param.default is ALWAYS or value != param.default:
                parts.append(f"{param.name}={param.render(value)}")
        return f"{self.name}({', '.join(parts)})" if parts else self.name


@dataclass(eq=False)
class Language:
    """One spec language: its error classes and its family table.

    Attributes:
        syntax_error: Raised for text that does not parse.
        param_error: Raised for arguments that do not fit a family.
        unknown_error: Raised for an unknown family name.
        term_label: What a term starts with, for syntax errors
            (``"an event name"``).
        numbers_only: Whether argument values are numbers only.
        families: Every accepted family name (aliases included) to its
            family.
    """

    syntax_error: type[GrammarSyntaxError]
    param_error: type[GrammarParamError]
    unknown_error: type[UnknownNameError]
    term_label: str
    numbers_only: bool = False
    families: dict[str, Family] = field(default_factory=dict)

    def define(self, name: str, cls: type, *params: Param, aliases: tuple[str, ...] = ()) -> Family:
        """Add a family built from ``cls`` to the table."""
        return self.add(Family(name, cls, self, params, aliases))

    def add(self, family: Family) -> Family:
        """Add ``family`` under its name and aliases; ``cls.spec()`` finds it."""
        for name in (family.name, *family.aliases):
            self.families[name] = family
        family.cls._spec_family = family
        return family

    def names(self) -> list[str]:
        """Family names without aliases, sorted."""
        return sorted(name for name, family in self.families.items() if name == family.name)

    def family(self, name: str) -> Family:
        """Look up a family by name or alias."""
        try:
            return self.families[name]
        except KeyError:
            raise self.unknown_error(name, self.families) from None


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #

_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        # Dots are allowed after the first character so legacy scheme alias
        # names such as "topk_b0.5" stay one token and compose inside wrappers.
        (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<punct>\.\.|[(),=+@])
        # A dot directly followed by another dot ends a number: "@3..5".
      | (?P<number>[+-]?(?:\d+\.(?!\.)\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)

#: The token after the last one.  A token is the ``(name, punct, number,
#: bad)`` groups of one :data:`_TOKEN_RE` match: exactly one is non-empty.
_END = ("", "", "", "")

_BOOL_LITERALS = {"true": True, "false": False}


class Parser:
    """Recursive-descent parser over one spec string of a language.

    Every syntax error is the language's :attr:`Language.syntax_error`,
    with a caret at the token the parser stopped on.
    """

    def __init__(self, text: str, language: Language):
        self.text = text
        self.language = language
        self.tokens: list[tuple[str, str, str, str]] = _TOKEN_RE.findall(text)
        self.tokens.append(_END)
        self.index = 0

    def got(self) -> str:
        """The current token's text, for error messages."""
        return "".join(self.tokens[self.index]) or "end of input"

    def fail(self, reason: str, index: int | None = None) -> NoReturn:
        """Raise a syntax error at token ``index`` (default: the current one).

        At a character that starts no token, the error says so instead.
        """
        if index is None:
            index = self.index
            bad = self.tokens[index][3]
            if bad:
                reason = f"unexpected character {bad!r}"
        starts = [match.start(match.lastindex) for match in _TOKEN_RE.finditer(self.text)]
        position = starts[index] if index < len(starts) else len(self.text)
        raise self.language.syntax_error(self.text, position, reason)

    def at_end(self) -> bool:
        return self.tokens[self.index] is _END

    def at(self, punct: str) -> bool:
        """Whether the current token is the punctuation ``punct``."""
        return self.tokens[self.index][1] == punct

    def accept(self, punct: str) -> bool:
        """Consume the punctuation ``punct`` if it is next."""
        if self.tokens[self.index][1] == punct:
            self.index += 1
            return True
        return False

    def term(self) -> Term:
        """``NAME [ "(" [ arg ("," arg)* ] ")" ]``."""
        name = self.tokens[self.index][0]
        if not name:
            self.fail(f"expected {self.language.term_label}, got {self.got()!r}")
        self.index += 1
        if not self.accept("("):
            return Term(name)
        args: list[tuple[str | None, object]] = []
        if not self.accept(")"):
            while True:
                args.append(self.arg())
                if self.accept(")"):
                    break
                if not self.accept(","):
                    self.fail(f"expected ',' or ')', got {self.got()!r}")
        return Term(name, tuple(args))

    def family_term(self) -> tuple[Family, Term]:
        """A term naming one of the language's families, and that family.

        The name is looked up before the arguments parse, so a term of
        another language reports its unknown name, with suggestions, rather
        than a syntax error somewhere in its arguments.
        """
        name = self.tokens[self.index][0]
        family = self.language.family(name) if name else None
        return family, self.term()

    def arg(self) -> tuple[str | None, object]:
        """``NAME "=" value | value``."""
        name = self.tokens[self.index][0]
        if name and self.tokens[self.index + 1][1] == "=":
            self.index += 2
            return name, self.value()
        return None, self.value()

    def value(self) -> object:
        """A number; unless the language is numbers-only, also a bool, name or term."""
        name, _, number, _ = self.tokens[self.index]
        if number:
            self.index += 1
            try:
                return int(number)
            except ValueError:
                return float(number)
        if self.language.numbers_only:
            self.fail(f"expected a number, got {self.got()!r}")
        if name:
            if self.tokens[self.index + 1][1] == "(":
                return self.term()
            self.index += 1
            return _BOOL_LITERALS.get(name.lower(), name)
        self.fail(f"expected a value, got {self.got()!r}")

    def natural(self, what: str) -> int:
        """A non-negative integer literal."""
        number = self.tokens[self.index][2]
        if not number.isdigit():
            self.fail(f"expected {what}, got {self.got()!r}")
        self.index += 1
        return int(number)

    def joined(self, item: Callable[["Parser"], T], between: str) -> list[T]:
        """``item ("+" item)*`` up to the end of input."""
        items = [item(self)]
        while not self.at_end():
            if not self.accept("+"):
                self.fail(f"expected '+' between {between}, got {self.got()!r}")
            items.append(item(self))
        return items
