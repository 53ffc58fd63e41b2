"""Unit tests for the shared grammar core, driven through a small toy language.

The scheme, scenario and policy languages are tested in their own suites;
these tests pin the core they share: the term parser and its caret
positions, parameter binding and coercion, canonical rendering, exact
number formatting and the three error kinds.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.grammar import (
    ALWAYS,
    Family,
    GrammarParamError,
    GrammarSyntaxError,
    Language,
    Param,
    Parser,
    Term,
    UnknownNameError,
    close_matches,
    format_number,
    render_value,
)


class ToySyntaxError(GrammarSyntaxError):
    subject = "toy spec"


class ToyParamError(GrammarParamError):
    pass


class UnknownToyError(UnknownNameError):
    noun = "toy"


@dataclass(frozen=True)
class Box:
    width: int
    scale: float = 1.0
    strict: bool = False

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("width must be non-negative")


@dataclass(frozen=True)
class Crate:
    pass


def toy_language(numbers_only: bool = False) -> Language:
    language = Language(
        syntax_error=ToySyntaxError,
        param_error=ToyParamError,
        unknown_error=UnknownToyError,
        term_label="a toy name",
        numbers_only=numbers_only,
    )
    language.define(
        "box",
        Box,
        Param("w", int, kwarg="width", aliases=("width",), required=True),
        Param("s", float, kwarg="scale", default=1.0, aliases=("scale",)),
        Param("strict", bool, default=False),
        aliases=("bx",),
    )
    language.define("crate", Crate)
    return language


@pytest.fixture
def toy():
    return toy_language()


def parse(text: str, language: Language):
    family, term = Parser(text, language).family_term()
    return family.build(term.args)


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value, text",
        [(4.0, "4"), (0.5, "0.5"), (1e-07, "1e-07"), (-2.25, "-2.25"), (123456.0, "123456")],
    )
    def test_uses_short_form_when_it_round_trips(self, value, text):
        assert format_number(value) == text

    @pytest.mark.parametrize("value", [3.0000004, 0.1 + 0.2, 1234567.0, 2.0**-40 / 3])
    def test_falls_back_to_repr_when_short_form_loses_digits(self, value):
        assert format_number(value) == repr(value)
        assert float(format_number(value)) == value

    def test_render_value_spells_every_literal_kind(self):
        nested = Term("inner", ((None, 2), ("flag", True)))
        assert render_value(True) == "true"
        assert render_value(False) == "false"
        assert render_value(7) == "7"
        assert render_value(3.0000004) == "3.0000004"
        assert render_value("sat") == "sat"
        assert render_value(nested) == "inner(2, flag=true)"


class TestParser:
    def test_bare_name_is_a_term_without_args(self, toy):
        assert Parser("crate", toy).term() == Term("crate")
        assert Parser("crate()", toy).term() == Term("crate")

    def test_values_keep_their_literal_types(self, toy):
        term = Parser("f(1, -2, 1.5, .5, 1e3, True, false, sat, g(x=1))", toy).term()
        values = [value for _, value in term.args]
        assert values == [1, -2, 1.5, 0.5, 1000.0, True, False, "sat", Term("g", (("x", 1),))]
        assert [type(value) for value in values[:5]] == [int, int, float, float, float]

    def test_keyword_and_positional_args_keep_their_order(self, toy):
        term = Parser(" box ( 3 ,s = 0.5 ) ", toy).term()
        assert term == Term("box", ((None, 3), ("s", 0.5)))

    def test_syntax_error_points_a_caret_at_the_offending_token(self, toy):
        text = "box(w=1 s=2)"
        with pytest.raises(ToySyntaxError, match="expected ',' or '\\)', got 's'") as info:
            Parser(text, toy).term()
        error = info.value
        assert error.position == text.index("s")
        assert str(error).splitlines() == [
            "invalid toy spec: expected ',' or ')', got 's'",
            f"  {text}",
            "  " + " " * text.index("s") + "^",
        ]

    def test_caret_at_end_of_input(self, toy):
        with pytest.raises(ToySyntaxError, match="got 'end of input'") as info:
            Parser("box(w=1", toy).term()
        assert info.value.position == len("box(w=1")

    def test_stray_character_is_reported_as_such(self, toy):
        with pytest.raises(ToySyntaxError, match="unexpected character ';'") as info:
            Parser("box(w=1;)", toy).term()
        assert info.value.position == len("box(w=1")

    def test_term_must_start_with_a_name(self, toy):
        with pytest.raises(ToySyntaxError, match="expected a toy name, got '3'"):
            Parser("3", toy).term()

    def test_numbers_only_language_rejects_names_as_values(self):
        with pytest.raises(ToySyntaxError, match="expected a number, got 'abc'"):
            Parser("box(w=abc)", toy_language(numbers_only=True)).term()

    def test_natural_reads_non_negative_integers_only(self, toy):
        assert Parser("12", toy).natural("a round") == 12
        with pytest.raises(ToySyntaxError, match="expected a round, got '1.5'"):
            Parser("1.5", toy).natural("a round")

    def test_joined_splits_on_plus(self, toy):
        parser = Parser("crate + box(w=1)", toy)
        assert parser.joined(Parser.term, "toys") == [Term("crate"), Term("box", (("w", 1),))]
        with pytest.raises(ToySyntaxError, match="expected '\\+' between toys, got 'box'"):
            Parser("crate box", toy).joined(Parser.term, "toys")

    def test_family_is_looked_up_before_its_arguments_parse(self, toy):
        with pytest.raises(UnknownToyError) as info:
            Parser("bax(w=;)", toy).family_term()
        assert info.value.suggestions == ["bx", "box"]


class TestBinding:
    def test_positional_keyword_and_alias_spellings_agree(self, toy):
        expected = Box(width=3, scale=0.5)
        for text in ("box(3, 0.5)", "box(w=3, s=0.5)", "box(s=0.5, width=3)", "bx(3, scale=0.5)"):
            assert parse(text, toy) == expected

    def test_coercion_onto_param_kinds(self, toy):
        box = parse("box(w=2, s=2, strict=1)", toy)
        assert box == Box(width=2, scale=2.0, strict=True)
        assert type(box.scale) is float

    @pytest.mark.parametrize(
        "text, message",
        [
            ("box(w=1.5)", "box: parameter 'w' expects int, got 1.5"),
            ("box(w=true)", "box: parameter 'w' expects int, got True"),
            ("box(w=1, strict=2)", "box: parameter 'strict' expects bool, got 2"),
            ("box(1, 2.0, true, 4)", "box: too many positional arguments \\(takes 3\\)"),
            ("box(w=1, width=2)", "box: parameter 'w' given twice"),
            ("box(s=2)", "box: missing required parameter 'w'"),
            ("box(w=1, depth=2)", "box: unknown parameter 'depth'; valid parameters: w, s, strict"),
            ("crate(1)", "crate: too many positional arguments \\(takes 0\\)"),
        ],
    )
    def test_bad_arguments_raise_the_language_param_error(self, toy, text, message):
        with pytest.raises(ToyParamError, match=message):
            parse(text, toy)

    def test_constructor_value_error_becomes_a_param_error(self, toy):
        with pytest.raises(ToyParamError, match="box: width must be non-negative"):
            parse("box(w=-1)", toy)

    def test_family_rejects_duplicate_keys(self, toy):
        with pytest.raises(ValueError, match="declares 'w' twice"):
            Family("bad", Box, toy, (Param("w", int), Param("x", int, aliases=("w",))))


class TestRendering:
    def test_defaults_are_omitted_and_always_params_kept(self, toy):
        family = toy.family("box")
        assert family.params[0].default is ALWAYS
        assert family.render(Box(width=3)) == "box(w=3)"
        assert family.render(Box(width=3, scale=0.5, strict=True)) == "box(w=3, s=0.5, strict=true)"
        assert family.render(Box(width=3), "inner") == "box(inner, w=3)"
        assert toy.family("crate").render(Crate()) == "crate"

    @pytest.mark.parametrize("scale", [3.0000004, 0.1 + 0.2, 1e-300, -7.5, 2.0])
    def test_canonical_form_round_trips_exactly(self, toy, scale):
        box = Box(width=1, scale=scale)
        text = toy.family("box").render(box)
        assert parse(text, toy) == box
        assert toy.family("box").render(parse(text, toy)) == text


class TestLanguageAndNames:
    def test_names_exclude_aliases_and_classes_find_their_family(self, toy):
        assert toy.names() == ["box", "crate"]
        assert toy.family("bx") is toy.family("box")
        assert Box._spec_family is toy.family("box")

    def test_unknown_name_is_a_key_error_with_suggestions(self, toy):
        with pytest.raises(KeyError) as info:
            toy.family("bx2")
        error = info.value
        assert isinstance(error, UnknownToyError)
        assert error.suggestions == ["bx", "box"]
        assert str(error) == "unknown toy 'bx2'; did you mean: bx, box? (known: box, bx, crate)"

    def test_close_matches_caps_the_suggestions(self):
        assert close_matches("topk", ["topkc", "topk_b2", "thc", "top", "topkk"], n=2) == [
            "topkk",
            "topkc",
        ]
        assert close_matches("zzz", ["box", "crate"]) == []
