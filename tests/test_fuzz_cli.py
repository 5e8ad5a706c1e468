"""Fuzzing ``check``: any input exits 0, 1 or 2 and never raises.

Profile documents follow the README grammar: its policy table gives the
policy elements, their parameters and the values each parameter takes.
Half of the documents keep to the grammar; the other half are noisy, with
out-of-grammar values, repeated and unknown elements, empty or missing
profile names, foreign roots and unknown children of ``<dds>``.  Any
document may also hold unknown elements inside ``<qos>``, a policy, a
duration or a value element, which the parser notes and otherwise ignores.
Environment documents use the README's keys, noisy ones with values of any
JSON type.  Either file may instead be raw bytes, or a document encoded as
Latin-1, so input that is not UTF-8 is covered too.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given, settings, strategies as st

from qos_chain_guard.cli import main

from test_profiles import _readme_policy_table

_NAMES = ["w", "r", "w2", "r2", "w3", "r3", "café"]
_TOKENS = ["UNLIMITED", "DURATION_INFINITY", "-1", "true", "false", "0a1B", "KEEP_LAST", "RELIABLE"]


def _element(tag: str, body: str) -> str:
    return f"<{tag}>{body}</{tag}>"


def _weighted(*choices: tuple[int, st.SearchStrategy]) -> st.SearchStrategy:
    """A draw from one of the ``(weight, strategy)`` choices, in proportion to weight."""
    return st.sampled_from([strategy for weight, strategy in choices for _ in range(weight)]).flatmap(
        lambda strategy: strategy
    )


@st.composite
def _with_unknown(draw, bodies: st.SearchStrategy[str]) -> str:
    """A body from ``bodies``, now and then with an unknown element before or after it."""
    body = draw(bodies)
    if draw(st.integers(min_value=0, max_value=3)):
        return body
    unknown = draw(st.sampled_from(["<bogus/>", "<extra>1</extra>"]))
    return draw(st.sampled_from([unknown + body, body + unknown]))


@st.composite
def _durations(
    draw, parts: st.SearchStrategy[str], values: st.SearchStrategy[str], min_parts: int = 0
) -> str:
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return "DURATION_INFINITY"
    chosen = draw(st.lists(parts, min_size=min_parts, max_size=3, unique=True))
    return "".join(_element(part, draw(values)) for part in chosen)


@st.composite
def _partition_names(draw, values: st.SearchStrategy[str]) -> str:
    return "".join(_element("name", draw(values)) for _ in range(draw(st.integers(0, 2))))


def _grammar_values(annotation: str) -> st.SearchStrategy[str]:
    """Bodies of a parameter element that the README's annotation allows."""
    small = _with_unknown(st.integers(min_value=0, max_value=30).map(str))
    tokens = re.findall(r"`([A-Z_]+)`", annotation)
    if tokens:
        return st.sampled_from(tokens)
    if "duration" in annotation:
        return _durations(st.sampled_from(["sec", "nanosec"]), small, min_parts=1)
    if "count" in annotation:
        return small | st.sampled_from(["UNLIMITED", "-1"])
    if "integer" in annotation:
        return small
    if "bool" in annotation:
        return st.sampled_from(["true", "false", "TRUE"])
    if "hex" in annotation:
        return st.sampled_from(["", "0a1B", "ff"])
    return _partition_names(_with_unknown(st.sampled_from(["", "a", "b"])))


def _readme_grammar() -> dict[str, dict[str, st.SearchStrategy[str]]]:
    """Policy tag -> parameter tag -> element bodies, from the README table."""
    grammar = {}
    for tag, cell in _readme_policy_table().items():
        names = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell))
        grammar[tag] = {
            # A parameter's annotation is the first parenthesis after its name.
            name: _grammar_values(re.search(rf"`{name}`[^(]*\(([^)]*)\)", cell).group(1))
            for name in names
        }
    return grammar


_GRAMMAR = _readme_grammar()
_scalars = st.one_of(
    st.sampled_from(_TOKENS),
    st.integers(min_value=-2, max_value=2**70).map(str),
    st.text(st.characters(codec="utf-8", exclude_categories=["Cc"]), max_size=6).map(escape),
)
# Bodies that may or may not suit the parameter they are put in.
_ANY_VALUE = st.one_of(
    _scalars,
    _durations(st.sampled_from(["sec", "nanosec", "bogus"]), _scalars),
    _partition_names(_scalars),
)


class _Noise:
    """How a document strays from the grammar: not at all, or now and then."""

    def __init__(self, noisy: bool):
        self.noisy = noisy

    def value(self, grammatical: st.SearchStrategy) -> st.SearchStrategy:
        return _weighted((7, grammatical), (1, _ANY_VALUE)) if self.noisy else grammatical

    def tags(self, tags: list[str], max_size: int) -> st.SearchStrategy[list[str]]:
        """Distinct tags; a noisy list may repeat one or add an unknown one."""
        if not self.noisy:
            return st.lists(st.sampled_from(tags), max_size=max_size, unique=True)
        elements = st.sampled_from(tags * 4 + ["bogus"])
        return _weighted(
            (3, st.lists(elements, max_size=max_size, unique=True)),
            (1, st.lists(elements, max_size=max_size)),
        )


@st.composite
def _qos(draw, noise: _Noise) -> str:
    policies = []
    for tag in draw(noise.tags(sorted(_GRAMMAR), max_size=4)):
        parameters = _GRAMMAR.get(tag, {})
        names = draw(noise.tags(sorted(parameters), max_size=3))
        body = "".join(
            _element(name, draw(_with_unknown(noise.value(parameters.get(name, _ANY_VALUE)))))
            for name in names
        )
        policies.append(_element(tag, draw(_with_unknown(st.just(body)))))
    return _element("qos", draw(_with_unknown(st.just("".join(policies)))))


@st.composite
def _endpoints(draw, name: str | None, noise: _Noise) -> str:
    tag = draw(st.sampled_from(["data_writer", "data_reader"]))
    attribute = "" if name is None else f" profile_name={quoteattr(name)}"
    children = []
    for child in draw(noise.tags(["topic", "qos"], max_size=2)):
        if child == "qos":
            children.append(draw(_qos(noise)))
        elif child == "topic":
            topic_name = _with_unknown(noise.value(st.sampled_from(["t", "t", "u"])))
            parts = draw(noise.tags(["name", "qos"], max_size=2))
            children.append(_element("topic", "".join(
                draw(_qos(noise)) if part == "qos" else _element(part, draw(topic_name)) for part in parts
            )))
        else:
            children.append(_element(child, draw(_scalars)))
    return f"<{tag}{attribute}>{''.join(children)}</{tag}>"


@st.composite
def _profile_documents(draw) -> str:
    noise = _Noise(draw(st.booleans()))
    names = st.sampled_from(_NAMES)
    if noise.noisy:
        names = _weighted((14, names), (1, st.none()), (1, st.just("")))
    chosen = draw(st.lists(names, max_size=4, unique=not noise.noisy))
    body = _element("profiles", "".join(draw(_endpoints(name, noise)) for name in chosen))
    roots = [body, body, _element("dds", body)]
    if noise.noisy:
        roots += [
            "<bogus/>",
            _element("dds", body * 2),
            # An unknown child of <dds> before and after <profiles>: its note comes in document order.
            _element("dds", "<log_config/>" + body),
            _element("dds", body + "<log_config/>"),
        ]
    return draw(st.sampled_from(roots))


_grammatical_ms = st.integers(min_value=1, max_value=500)
_any_ms = st.one_of(
    st.integers(min_value=-5, max_value=10**30),
    # Publish periods whose doubles or sums pass the 64-bit nanosecond range.
    st.sampled_from([4_700_000_000_000, 9_200_000_000_000]),
    st.floats(),
    st.sampled_from(["10", None, True, [], {}]),
)


@st.composite
def _environment_documents(draw) -> str:
    noisy = draw(st.booleans())
    ms = _weighted((3, _grammatical_ms), (1, _any_ms)) if noisy else _grammatical_ms
    keys = {
        "rtt_ms": ms,
        "default_publish_period_ms": ms,
        "publish_period_ms": st.dictionaries(st.sampled_from(_NAMES), ms, max_size=3),
    }
    if noisy:
        keys["publish_period_ms"] |= ms
    document = json.dumps(draw(st.fixed_dictionaries({}, optional=keys)))
    if noisy:
        document = draw(_weighted(
            (6, st.just(document)), (1, st.text(max_size=20)), (1, st.just('{"bogus": 1}'))
        ))
    return document


def _files(documents: st.SearchStrategy[str]) -> st.SearchStrategy[bytes]:
    return _weighted(
        (8, documents.map(lambda text: text.encode("utf-8"))),
        (1, documents.map(lambda text: text.encode("latin-1", errors="replace"))),
        (1, st.binary(max_size=80)),
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    profile=_files(_profile_documents()),
    environment=st.none() | _files(_environment_documents()),
    fmt=st.sampled_from(["human", "json"]),
    fail_on=st.sampled_from(["error", "warning", "info"]),
    pair=_weighted((3, st.none()), (1, st.sampled_from(["w:r", "r:w", "w:ghost", "w-r"]))),
)
def test_check_exits_0_1_or_2_and_never_raises(workdir, profile, environment, fmt, fail_on, pair):
    profile_path = workdir / "profile.xml"
    profile_path.write_bytes(profile)
    argv = ["check", str(profile_path), "--format", fmt, "--fail-on", fail_on, "--color", "off"]
    if environment is not None:
        environment_path = workdir / "environment.json"
        environment_path.write_bytes(environment)
        argv += ["--env", str(environment_path)]
    if pair is not None:
        argv += ["--pair", pair]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout.getvalue() == ""
        assert stderr.getvalue().startswith("qos-chain-guard: error: ")
