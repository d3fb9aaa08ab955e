"""Query language tests: parser, evaluation semantics, and an oracle property
comparing run_query against a naive scan with independently written predicate
logic."""

from __future__ import annotations

import operator
from datetime import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotlog.query import (
    AttributeCompare,
    HasActivity,
    OnActivityCompare,
    Query,
    QueryParseError,
    StartTimeOfDayIn,
    parse_query,
    run_query,
)

from conftest import at, ev, mklog, tr

# --- parsing -------------------------------------------------------------------


def test_bare_modes_parse():
    assert parse_query("count") == Query("count", ())
    assert parse_query("cases") == Query("cases", ())


def test_each_filter_form_parses():
    q = parse_query(
        'cases where has activity "weigh the empty truck" '
        "and case.cargo_price >= 1000.5 "
        "and event.truck_weight != 0 "
        "and start_hour in [22:00, 06:00) "
        'and on "weigh the empty truck": truck_weight > 8000 '
        "and case.customs_supervison = true"
    )
    assert q.mode == "cases"
    assert q.filters == (
        HasActivity("weigh the empty truck"),
        AttributeCompare("case", "cargo_price", ">=", 1000.5),
        AttributeCompare("event", "truck_weight", "!=", 0),
        StartTimeOfDayIn(time(22, 0), time(6, 0)),
        OnActivityCompare("weigh the empty truck", "truck_weight", ">", 8000),
        AttributeCompare("case", "customs_supervison", "=", True),
    )


def test_string_literals_support_escapes():
    q = parse_query(r'count where has activity "say \"hi\""')
    assert q.filters == (HasActivity('say "hi"'),)


def test_number_literal_types():
    q = parse_query("count where case.a = 3 and case.b = 3.0 and case.c = -2")
    literals = [f.literal for f in q.filters]
    assert literals == [3, 3.0, -2]
    assert type(literals[0]) is int and type(literals[1]) is float


@pytest.mark.parametrize(
    "text,column",
    [
        ("", 1),
        ("   ", 1),
        ("find all", 1),
        ("count where", 12),
        ("count nonsense", 7),
        ("count where case.x ~ 3", 20),
        ("count where case.x = ]", 22),
        ("count where has activity unquoted", 26),
        ("count where start_hour in [25:00, 06:00)", 28),
        ("count where start_hour in [22:61, 06:00)", 28),
        ('count where on "a" x = 1', 20),  # missing colon
        ("cases trailing", 7),  # junk instead of where
        ('count where has activity "a" or has activity "b"', 30),  # no disjunction
    ],
)
def test_parse_errors_report_a_column(text, column):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert err.value.column == column


def test_unexpected_character_is_rejected():
    with pytest.raises(QueryParseError, match="unexpected character"):
        parse_query('count where has activity "unterminated')


@pytest.mark.parametrize(
    "text,column",
    [
        ("count where start_hour in [\u0662\u0662:\u0660\u0660, 06:00)", 28),  # Arabic-Indic
        ("count where start_hour in [22:00, 0\u0666:00)", 36),
        ("count where case.x = \u0661\u0662\u0663", 22),
        ("count where case.x = 1.\uff15", 24),  # a fullwidth 5 after "1."
    ],
)
def test_numbers_and_times_take_ascii_digits_only(text, column):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert err.value.column == column


def test_keys_name_what_the_filters_read():
    query = parse_query(
        'count where case.a = 1 and event.b > 2 and on "X": c != "y" and case.a < 5 '
        'and has activity "d" and start_hour in [22:00, 06:00)'
    )
    assert query.keys == {"a", "b", "c"}
    assert parse_query("cases").keys == frozenset()


# --- evaluation semantics --------------------------------------------------------


def hour_trace(case_id: str, hh: int, mm: int = 0, *events_after):
    from datetime import datetime, timezone

    first = datetime(2024, 3, 1, hh, mm, tzinfo=timezone.utc)
    return tr(case_id, [ev("start", first), *events_after])


def test_has_activity_scans_all_events():
    log = mklog(tr("c1", [ev("a", at(0)), ev("b", at(1))]), tr("c2", [ev("a", at(0))]))
    result = run_query(log, 'cases where has activity "b"')
    assert result.case_ids == ("c1",)


def test_case_ids_keep_log_order():
    log = mklog(tr("z", [ev("a", at(0))]), tr("a", [ev("a", at(0))]))
    assert run_query(log, "cases").case_ids == ("z", "a")


def test_missing_attribute_is_false_not_an_error():
    log = mklog(tr("c1", [ev("a", at(0))]))
    result = run_query(log, "count where case.nope = 1")
    assert result.count == 0 and result.errors == ()


def test_event_scope_matches_any_event():
    log = mklog(tr("c1", [ev("a", at(0), w=1), ev("b", at(1), w=9)]))
    assert run_query(log, "count where event.w > 5").count == 1
    assert run_query(log, "count where event.w > 9").count == 0


def test_on_activity_restricts_the_event_scan():
    log = mklog(tr("c1", [ev("weigh", at(0), w=1), ev("other", at(1), w=9)]))
    assert run_query(log, 'count where on "weigh": w > 5').count == 0
    assert run_query(log, 'count where on "other": w > 5').count == 1


def test_int_and_float_compare_interchangeably():
    log = mklog(tr("c1", [ev("a", at(0))], n=3))
    assert run_query(log, "count where case.n < 3.5").count == 1
    assert run_query(log, "count where case.n = 3.0").count == 1


def test_string_comparisons_use_lexicographic_order():
    log = mklog(tr("c1", [ev("a", at(0))], label="beta"))
    assert run_query(log, 'count where case.label > "alpha"').count == 1
    assert run_query(log, 'count where case.label < "alpha"').count == 0


def test_boolean_attributes_allow_only_equality():
    log = mklog(tr("c1", [ev("a", at(0))], flag=True))
    assert run_query(log, "count where case.flag = true").count == 1
    assert run_query(log, "count where case.flag != false").count == 1
    result = run_query(log, "count where case.flag < true")
    assert result.count == 0
    assert [e.case_id for e in result.errors] == ["c1"]


def test_type_mismatch_excludes_the_trace_and_reports_it():
    log = mklog(
        tr("c1", [ev("a", at(0))], n="not a number"),
        tr("c2", [ev("a", at(0))], n=5),
    )
    result = run_query(log, "count where case.n > 1")
    assert result.case_ids == ("c2",)
    assert len(result.errors) == 1 and result.errors[0].case_id == "c1"
    assert "cannot compare" in result.errors[0].message


@pytest.mark.parametrize(
    "query", ['count where event.label = "red"', 'count where on "a": label = "red"']
)
@pytest.mark.parametrize("values", [("red", 0), (0, "red")])
def test_event_scope_mismatch_excludes_the_trace_in_either_event_order(query, values):
    first, second = values
    log = mklog(tr("c1", [ev("a", at(0), label=first), ev("a", at(60), label=second)]))
    result = run_query(log, query)
    assert result.case_ids == ()
    assert [e.case_id for e in result.errors] == ["c1"]


def test_start_hour_half_open_window_with_wrap():
    log = mklog(
        hour_trace("night-start", 22, 0),
        hour_trace("midnight", 0, 30),
        hour_trace("almost-six", 5, 59),
        hour_trace("six-exact", 6, 0),
        hour_trace("noon", 12, 0),
    )
    result = run_query(log, "cases where start_hour in [22:00, 06:00)")
    assert result.case_ids == ("night-start", "midnight", "almost-six")


def test_start_hour_without_wrap():
    log = mklog(hour_trace("morning", 8, 0), hour_trace("evening", 20, 0))
    result = run_query(log, "cases where start_hour in [06:00, 18:00)")
    assert result.case_ids == ("morning",)


def test_start_hour_equal_endpoints():
    log = mklog(hour_trace("c1", 13, 37))
    # the parsed form wraps: an equal-endpoint window covers the whole day
    assert run_query(log, "count where start_hour in [09:00, 09:00)").count == 1
    # directly constructed without wrap it is the empty window
    empty = Query("count", (StartTimeOfDayIn(time(9), time(9), allow_wrap=False),))
    assert run_query(log, empty).count == 0
    assert StartTimeOfDayIn(time(9), time(9)).matches(log.traces[0])


def test_empty_trace_never_matches_start_hour():
    log = mklog(tr("c1"))
    assert run_query(log, "count where start_hour in [00:00, 00:00)").count == 0


def test_result_dict_shape():
    log = mklog(tr("c1", [ev("a", at(0))], flag=True))
    assert run_query(log, "count").to_dict() == {"mode": "count", "count": 1}
    assert run_query(log, "cases").to_dict() == {
        "mode": "cases",
        "count": 1,
        "case_ids": ["c1"],
    }
    with_errors = run_query(log, "count where case.flag > true").to_dict()
    assert with_errors["errors"][0]["case_id"] == "c1"


def test_filter_order_never_changes_the_result():
    log = mklog(
        hour_trace("c1", 23, 0, ev("weigh", at(10), w=5)),
        hour_trace("c2", 9, 0, ev("weigh", at(10), w=50)),
    )
    text_a = 'cases where start_hour in [22:00, 06:00) and on "weigh": w < 10'
    text_b = 'cases where on "weigh": w < 10 and start_hour in [22:00, 06:00)'
    assert run_query(log, text_a).case_ids == run_query(log, text_b).case_ids == ("c1",)


# --- oracle property ---------------------------------------------------------------

ACTIVITIES = ("alpha", "beta", "gamma")
OPS_TABLE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def naive_compare(value, op, literal):
    """Reference predicate semantics; raises TypeError on mismatched types."""
    if type(value) is bool or type(literal) is bool:
        if type(value) is bool and type(literal) is bool and op in ("=", "!="):
            return OPS_TABLE[op](value, literal)
        raise TypeError
    if isinstance(value, str) != isinstance(literal, str):
        raise TypeError
    if not isinstance(value, (str, int, float)):
        raise TypeError  # e.g. timestamps are not comparable in queries
    return OPS_TABLE[op](value, literal)


def naive_matches(trace, flt) -> bool:
    if isinstance(flt, HasActivity):
        return flt.activity in [e.activity for e in trace.events]
    if isinstance(flt, AttributeCompare) and flt.scope == "case":
        value = trace.get(flt.key)
        return value is not None and naive_compare(value, flt.op, flt.literal)
    if isinstance(flt, (AttributeCompare, OnActivityCompare)):
        hits = []
        for event in trace.events:
            if isinstance(flt, OnActivityCompare) and event.activity != flt.activity:
                continue
            value = event.get(flt.key)
            if value is not None:
                hits.append(naive_compare(value, flt.op, flt.literal))
        return any(hits)
    assert isinstance(flt, StartTimeOfDayIn)
    if not trace.events:
        return False
    from datetime import timezone

    first = trace.events[0].timestamp.astimezone(timezone.utc).time()
    lo, hi = flt.start, flt.end
    if lo == hi:
        return flt.allow_wrap
    if lo < hi:
        return lo <= first < hi
    return flt.allow_wrap and (first >= lo or first < hi)


def render_literal(literal) -> str:
    if type(literal) is bool:
        return "true" if literal else "false"
    if isinstance(literal, str):
        return f'"{literal}"'
    return repr(literal)


def render_filter(flt) -> str:
    if isinstance(flt, HasActivity):
        return f'has activity "{flt.activity}"'
    if isinstance(flt, AttributeCompare):
        return f"{flt.scope}.{flt.key} {flt.op} {render_literal(flt.literal)}"
    if isinstance(flt, OnActivityCompare):
        return f'on "{flt.activity}": {flt.key} {flt.op} {render_literal(flt.literal)}'
    return f"start_hour in [{flt.start.strftime('%H:%M')}, {flt.end.strftime('%H:%M')})"


attr_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1.5, 0.5, 2.0]),
    st.sampled_from(["red", "blue"]),
    st.booleans(),
)
attr_sets = st.dictionaries(st.sampled_from(["p", "q", "label", "ok"]), attr_values, max_size=3)
ops = st.sampled_from(list(OPS_TABLE))
literals = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1.5, 0.5, 2.0]),
    st.sampled_from(["red", "blue"]),
    st.booleans(),
)
times = st.tuples(st.integers(0, 23), st.sampled_from([0, 15, 30, 45])).map(
    lambda hm: time(hm[0], hm[1])
)


def queries_over(keys, activities=ACTIVITIES):
    """Queries of up to three filters that read `keys` and ask for `activities`."""
    filters = st.one_of(
        st.builds(HasActivity, st.sampled_from(activities)),
        st.builds(
            AttributeCompare, st.sampled_from(["case", "event"]), st.sampled_from(keys), ops, literals
        ),
        st.builds(
            OnActivityCompare, st.sampled_from(activities), st.sampled_from(keys), ops, literals
        ),
        st.builds(StartTimeOfDayIn, times, times),
    )
    return st.builds(
        Query, st.sampled_from(["count", "cases"]), st.lists(filters, max_size=3).map(tuple)
    )



def build_trace(index_attrs_events):
    index, attrs, events = index_attrs_events
    built = [
        ev(activity, at(3600 * hour + 60 * pos), **eattrs)
        for pos, (activity, hour, eattrs) in enumerate(events)
    ]
    built.sort(key=lambda e: e.timestamp)
    return tr(f"case-{index}", built, **attrs)


trace_bodies = st.tuples(
    st.integers(),
    attr_sets,
    st.lists(st.tuples(st.sampled_from(ACTIVITIES), st.integers(0, 23), attr_sets), max_size=4),
)
query_logs = st.lists(trace_bodies, max_size=6).map(
    lambda bodies: mklog(*(build_trace((i, a, e)) for i, (_, a, e) in enumerate(bodies)))
)
queries = queries_over(["p", "q", "label", "ok"])


@given(query_logs, queries)
@example(
    mklog(tr("case-0", [ev("A", at(0), label="red"), ev("A", at(60), label=0)])),
    Query("count", (AttributeCompare("event", "label", "=", "red"),)),
)
def test_run_query_matches_naive_scan(log, query):
    expected_ids = []
    expected_errors = []
    for trace in log.traces:
        try:
            if all(naive_matches(trace, f) for f in query.filters):
                expected_ids.append(trace.case_id)
        except TypeError:
            expected_errors.append(trace.case_id)
    result = run_query(log, query)
    assert list(result.case_ids) == expected_ids
    assert [e.case_id for e in result.errors] == expected_errors


@given(query_logs, queries)
def test_query_text_rendering_roundtrips_through_the_parser(log, query):
    text = query.mode
    if query.filters:
        text += " where " + " and ".join(render_filter(f) for f in query.filters)
    parsed = parse_query(text)
    assert parsed == query
    assert run_query(log, parsed) == run_query(log, query)
