"""A query answered over a log parsed with only the keys it reads.

`iotlog query` parses its log with `parse_xes(document, keep=query.keys)`,
so attributes the query never reads are checked but not built. These tests
hold that to the full parse: the same answer, or the same error.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given

from iotlog.query import AttributeCompare, OnActivityCompare, Query, run_query
from iotlog.xes import XesParseError, parse_xes

from test_query import queries_over
from test_xes import xes_documents


def answer(document, query: Query, keep=None):
    """The query's result over the parsed document, or the parse error's text."""
    try:
        log = parse_xes(document) if keep is None else parse_xes(document, keep=keep)
    except XesParseError as exc:
        return str(exc)
    return run_query(log, query)


def doc(trace_body: str, metadata: str = "") -> str:
    """A one-trace log; `trace_body` goes after the case id and before one event."""
    return (
        f"<log>\n{metadata}<trace>\n<string key=\"case_id\" value=\"c\"/>\n{trace_body}"
        '<event><string key="activity" value="a"/><date key="timestamp" value="2024-01-01"/>'
        '<int key="k" value="1"/></event>\n</trace>\n</log>'
    )


READS_K = Query("cases", (AttributeCompare("event", "k", "=", 1),))

# Every key the documents use, the mandatory fields' aliases among them.
DOCUMENT_KEYS = ["k", "m", "source", "case_id", "concept:name", "activity", "timestamp",
                 "time:timestamp"]


@given(xes_documents(), queries_over(DOCUMENT_KEYS, ["a", "b", "A"]))
@example(doc('<int key="big" value="9223372036854775808"/>\n'), READS_K)
@example(doc('<event><string key="activity" value="b"/><date key="timestamp" value="2024-01-01"/>'
             '<date key="d" value="2024-W01-1"/></event>\n'), READS_K)
@example(doc("", metadata='<string key="" value="v"/>\n'), READS_K)
@example(
    '<log><trace><string key="concept:name" value="c1"/><string key="m" value="x"/>'
    '<event><string key="concept:name" value="a"/><date key="time:timestamp" value="2024-01-01"/>'
    '<string key="concept:name" value="again"/><int key="k" value="1"/></event></trace></log>',
    Query("cases", (OnActivityCompare("a", "concept:name", "=", "again"),)),
)
@example(
    '<log><trace><string key="case_id" value="c"/><event><string key="activity" value="a"/>'
    '<string key="activity" value="b"/><date key="timestamp" value="2024-01-01"/>'
    '<int key="k" value="1"/><string key="k" value="red"/><int key="m" value="2"/></event>'
    "</trace></log>",
    Query("cases", (AttributeCompare("event", "activity", "=", "b"),) + READS_K.filters),
)
def test_a_query_over_the_keys_it_reads_answers_as_over_the_whole_log(document, query):
    assert answer(document, query, keep=query.keys) == answer(document, query)


@pytest.mark.parametrize(
    "body,message",
    [
        ('<int key="big" value="9223372036854775808"/>\n',
         "trace 0: attribute 'big': attribute 'big': integer value outside 64-bit range (line 4)"),
        ('<date key="d" value="2024-W01-1"/>\n',
         "trace 0: attribute 'd': timestamp '2024-W01-1' is not"),
        ('<string key="" value="v"/>\n',
         "trace 0: attribute '': attribute key must be non-empty (line 4)"),
        ('<boolean key="b" value="yes"/>\n', "trace 0: attribute 'b': bad boolean literal 'yes'"),
        ('<float key="f" value="x"/>\n', "trace 0: attribute 'f': could not convert"),
        ('<list key="l"/>\n', "trace 0: nested attribute <list key='l'>"),
        ('<id key="i" value="v"/>\n', "trace 0: unknown attribute type tag <id> (line 4)"),
        ('<string key="s"/>\n', "trace 0: attribute element <string> needs key and value"),
    ],
    ids=["int64", "date", "empty_key", "boolean", "float", "list", "tag", "no_value"],
)
def test_an_attribute_left_out_still_fails_its_checks_with_the_same_message(body, message):
    got = answer(doc(body), READS_K, keep={"k"})
    assert got.startswith(message) and got == answer(doc(body), READS_K)


def test_keep_builds_the_named_keys_and_the_mandatory_fields_only():
    document = (
        '<log><string key="source" value="s"/><trace><string key="concept:name" value="c"/>'
        '<string key="k" value="x"/><int key="m" value="2"/><event>'
        '<string key="concept:name" value="a"/><date key="time:timestamp" value="2024-01-01"/>'
        '<string key="activity" value="b"/><float key="k" value="1.5"/><boolean key="m" '
        'value="true"/></event></trace></log>'
    )
    full = parse_xes(document)
    kept = parse_xes(document, keep={"k"})
    assert [a.key for a in full.metadata] == ["source"] and kept.metadata == ()
    trace = kept.traces[0]
    assert (trace.case_id, [(a.key, a.value) for a in trace.attributes]) == ("c", [("k", "x")])
    event = trace.events[0]
    assert (event.activity, event.timestamp) == ("b", full.traces[0].events[0].timestamp)
    # Beside `activity`, `concept:name` is a plain attribute; the aliases are always built.
    assert [(a.key, a.value) for a in event.attributes] == [("concept:name", "a"), ("k", 1.5)]
    assert parse_xes(document, keep=()).traces[0].events[0].attributes == (
        full.traces[0].events[0].attributes[0],
    )
