"""One round-trip property over the shared grammar core.

Hypothesis draws terms from all three family tables -- schemes, scenario
events and recovery rules -- with arbitrary in-range ints and finite
floats, then spells them with random parameter aliases, positional or
keyword binding, exact number spellings, enum prefixes and whitespace.
For every draw:

* every spelling parses to the object built directly from the drawn values;
* ``parse(render(x)) == x``, parameter values exactly equal;
* the canonical form is a fixpoint: ``render(parse(render(x))) == render(x)``.
"""

from __future__ import annotations

import enum

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import make_scheme
from repro.compression.spec import SCHEMES
from repro.grammar import format_number
from repro.simulator.gpu import Precision
from repro.simulator.recovery import RULES, RecoveryPolicy, parse_policy
from repro.simulator.scenario import EVENTS, Scenario, parse_scenario


def ints(low: int, high: int = 2**40):
    return st.integers(low, high)


def floats(low: float, high: float, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **kwargs)


positive = floats(0.0, 1e6, exclude_min=True)

#: In-range values of every parameter of every family, keyed by
#: ``(family, canonical parameter name)``.
RANGES = {
    SCHEMES: {
        ("baseline", "p"): st.sampled_from([Precision.FP16, Precision.FP32]),
        ("topk", "b"): floats(0.0, 64.0, exclude_min=True),
        ("topkc", "b"): floats(0.0, 64.0, exclude_min=True),
        ("topkc", "c"): ints(1),
        ("topkc", "perm"): st.booleans(),
        ("topkc", "seed"): ints(0),
        ("thc", "q"): ints(2, 16),
        ("thc", "b"): ints(16, 64),
        ("thc", "rot"): None,
        ("thc", "agg"): None,
        ("thc", "seed"): ints(0),
        ("qsgd", "q"): ints(2, 16),
        ("qsgd", "b"): ints(16, 64),
        ("qsgd", "agg"): None,
        ("signsgd", "scale"): st.booleans(),
        ("powersgd", "r"): ints(1),
        ("powersgd", "bits"): st.sampled_from([16, 32]),
        ("powersgd", "warm"): st.booleans(),
        ("powersgd", "seed"): ints(0),
        ("ef", "decay"): floats(0.0, 1.0),
    },
    EVENTS: {
        ("slowdown", "w"): ints(0),
        ("slowdown", "x"): positive,
        ("nic_degrade", "w"): ints(0),
        ("nic_degrade", "x"): positive,
        ("flap", "rack"): ints(0),
        ("flap", "x"): positive,
        ("domain_fail", "d"): ints(0),
        ("domain_fail", "x"): positive,
        ("switch_mem", "x"): floats(0.0, 1.0, exclude_min=True),
        ("churn", "p"): floats(0.0, 1.0),
        ("churn", "x"): positive,
        ("join", "n"): ints(1),
        ("leave", "n"): ints(1),
    },
    RULES: {
        ("timeout", "k"): floats(1.0, 1e6),
        ("retry", "max"): ints(0),
        ("retry", "backoff"): floats(0.0, 1e6),
        ("drop", "max_workers"): ints(1),
        ("stale", "max"): ints(0),
    },
}


def families(language):
    return [language.families[name] for name in language.names()]


def wraps(family) -> bool:
    return getattr(family, "wraps", False)


def value_strategy(language, family, param):
    strategy = RANGES[language][(family.name, param.name)]
    if strategy is None:  # every member of an enum kind
        strategy = st.sampled_from(list(param.kind))
    return strategy


@st.composite
def draws(draw, language, nested=False):
    """``(family, {param: value}, inner)``: one term of ``language``.

    ``inner`` is the wrapped term of a wrapper family (else ``None``),
    drawn with ``nested=True``, which draws no wrapper.
    """
    family = draw(st.sampled_from([f for f in families(language) if not (nested and wraps(f))]))
    values = {param: draw(value_strategy(language, family, param)) for param in family.params}
    inner = draw(draws(language, nested=True)) if wraps(family) else None
    return family, values, inner


# --------------------------------------------------------------------------- #
# Spelling
# --------------------------------------------------------------------------- #

space = st.sampled_from(["", "", " ", "  ", "\t", "\n"])


@st.composite
def spell_value(draw, value) -> str:
    if isinstance(value, bool):
        spellings = ["true", "True", "TRUE", "1"] if value else ["false", "False", "0"]
        return draw(st.sampled_from(spellings))
    if isinstance(value, enum.Enum):
        members = [str(m.value).lower() for m in type(value)]
        text = str(value.value)
        unique = [
            text[:length]
            for length in range(1, len(text) + 1)
            if sum(m.startswith(text[:length].lower()) for m in members) == 1
        ]
        return draw(st.sampled_from([*unique, value.name, value.name.lower()]))
    if isinstance(value, float):
        return draw(st.sampled_from([repr(value), format_number(value), f"{value:.17e}"]))
    return str(value)


@st.composite
def spell_term(draw, drawn) -> str:
    """One random spelling: aliases, positional prefix, value forms, spaces."""
    family, values, inner = drawn
    names = [family.name, *family.aliases]
    parts = [draw(spell_term(inner))] if inner is not None else []
    positional = draw(st.integers(0, len(family.params)))
    keyword = []
    for index, param in enumerate(family.params):
        text = draw(spell_value(values[param]))
        if index < positional:
            parts.append(text)
        else:
            key = draw(st.sampled_from([param.name, *param.aliases]))
            keyword.append(f"{key}{draw(space)}={draw(space)}{text}")
    parts.extend(draw(st.permutations(keyword)))
    separator = draw(space) + "," + draw(space)
    args = separator.join(parts)
    name = draw(st.sampled_from(names))
    if not parts and draw(st.booleans()):
        return name
    return f"{name}{draw(space)}({draw(space)}{args}{draw(space)})"


@st.composite
def spell_window(draw, window) -> str:
    start, until = window
    if until is None:
        return "" if start == 0 and draw(st.booleans()) else f"{draw(space)}@{draw(space)}{start}"
    return f"{draw(space)}@{draw(space)}{start}{draw(space)}..{draw(space)}{until}"


# --------------------------------------------------------------------------- #
# Direct construction and identity
# --------------------------------------------------------------------------- #


def construct(drawn, **extra):
    family, values, inner = drawn
    leading = (construct(inner),) if inner is not None else ()
    kwargs = {param.constructor_keyword: value for param, value in values.items()}
    return family.cls(*leading, **kwargs, **extra)


def scheme_identity(scheme):
    """Type plus every spec-visible attribute, recursively (schemes have no ``==``)."""
    family = type(scheme)._spec_family
    values = tuple(getattr(scheme, param.attribute) for param in family.params)
    inner = scheme_identity(scheme.scheme) if family.wraps else None
    return type(scheme), values, inner


windows = st.one_of(
    st.tuples(ints(0, 10**6), st.none()),
    ints(0, 10**6).flatmap(lambda start: st.tuples(st.just(start), ints(start + 1, start + 10**6))),
)


@st.composite
def scheme_cases(draw):
    drawn = draw(draws(SCHEMES))
    spellings = [draw(space) + draw(spell_term(drawn)) + draw(space) for _ in range(2)]
    return SCHEME_LANGUAGE, construct(drawn), spellings


@st.composite
def scenario_cases(draw):
    terms = draw(st.lists(st.tuples(draws(EVENTS), windows), min_size=1, max_size=3))
    expected = Scenario(
        events=tuple(
            construct(drawn, start_round=start, until_round=until)
            for drawn, (start, until) in terms
        )
    )

    def spell():
        return (draw(space) + "+" + draw(space)).join(
            draw(spell_term(drawn)) + draw(spell_window(window)) for drawn, window in terms
        )

    return SCENARIO_LANGUAGE, expected, [spell(), spell()]


@st.composite
def policy_cases(draw):
    chosen = draw(st.lists(st.sampled_from(families(RULES)), min_size=1, max_size=4, unique=True))
    terms = [
        (family, {p: draw(value_strategy(RULES, family, p)) for p in family.params}, None)
        for family in chosen
    ]
    expected = RecoveryPolicy(rules=tuple(construct(drawn) for drawn in terms))

    def spell():
        ordered = draw(st.permutations(terms))
        return (draw(space) + "+" + draw(space)).join(draw(spell_term(t)) for t in ordered)

    return POLICY_LANGUAGE, expected, [spell(), spell()]


#: ``(parse, render, identity)`` of each language.
SCHEME_LANGUAGE = (make_scheme, lambda scheme: scheme.spec(), scheme_identity)
SCENARIO_LANGUAGE = (parse_scenario, Scenario.spec, lambda scenario: scenario)
POLICY_LANGUAGE = (parse_policy, RecoveryPolicy.spec, lambda policy: policy)


# --------------------------------------------------------------------------- #
# The property
# --------------------------------------------------------------------------- #


def test_ranges_cover_every_family_table():
    for language, ranges in RANGES.items():
        assert {(f.name, p.name) for f in families(language) for p in f.params} == set(ranges)


@given(st.one_of(scheme_cases(), scenario_cases(), policy_cases()))
@settings(max_examples=300, deadline=None)
def test_every_spelling_round_trips_exactly(case):
    (parse, render, identity), expected, spellings = case
    for text in spellings:
        parsed = parse(text)
        assert identity(parsed) == identity(expected), text
        canonical = render(parsed)
        reparsed = parse(canonical)
        assert identity(reparsed) == identity(parsed), canonical
        assert render(reparsed) == canonical
