"""Stream format round-trips and generator legality."""

from __future__ import annotations

from pathlib import Path

import pytest

from dyncut import (
    DynamicGraph,
    StreamFormatError,
    UpdateStream,
    generate_stream,
    parse_stream,
    render_stream,
)
from dyncut.streams import DELETE, INSERT, MODELS, QUERY_CUT, QUERY_VALUE, Event


def test_parse_basic():
    text = "n 4\n+ 0 1\n+ 2 3\n?\n- 0 1\n?e\n"
    s = parse_stream(text)
    assert s.n == 4
    assert s.events == [
        Event(INSERT, (0, 1)),
        Event(INSERT, (2, 3)),
        Event(QUERY_VALUE),
        Event(DELETE, (0, 1)),
        Event(QUERY_CUT),
    ]


def test_parse_skips_blank_lines():
    s = parse_stream("n 2\n\n+ 0 1\n\n")
    assert len(s.events) == 1


def test_parse_canonicalizes_endpoints():
    s = parse_stream("n 3\n+ 2 0\n")
    assert s.events[0].edge == (0, 2)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("x 4\n", 1),
        ("n 0\n", 1),
        ("n 4\n+ 0\n", 2),
        ("n 4\n+ 0 4\n", 2),
        ("n 4\n+ 1 1\n", 2),
        ("n 4\n? 1\n", 2),
        ("n 4\n+ 0 1\n* 0 1\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(StreamFormatError) as err:
        parse_stream(text)
    assert err.value.line == line
    assert f"line {line}" in str(err.value)


def test_render_round_trip():
    for model in MODELS:
        s = generate_stream(model, 12, 120, seed=3, query_every=7)
        assert parse_stream(render_stream(s)) == s


def test_header_only_stream():
    s = UpdateStream(8, [])
    assert parse_stream(render_stream(s)) == s


def _replay_legal(stream: UpdateStream) -> DynamicGraph:
    # DynamicGraph raises on duplicate inserts or absent deletes
    g = DynamicGraph(stream.n)
    for ev in stream.events:
        if ev.kind == INSERT:
            g.insert_edge(ev.edge)
        elif ev.kind == DELETE:
            g.delete_edge(ev.edge)
    return g


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generators_emit_legal_updates(model, seed):
    stream = generate_stream(model, 16, 400, seed=seed, query_every=9)
    _replay_legal(stream)


def test_generator_determinism():
    a = generate_stream("erdos-insert-delete", 16, 100, seed=7)
    b = generate_stream("erdos-insert-delete", 16, 100, seed=7)
    assert a == b


def test_generator_reproduces_recorded_stream():
    # tests/data/dense32.txt was written by `dyncut gen --model dense-regular
    # -n 32 --degree 10 --steps 600 --query-every 10 --cut-queries`
    recorded = Path(__file__).parent / "data" / "dense32.txt"
    stream = generate_stream("dense-regular", 32, 600, seed=0, query_every=10,
                             degree=10, query_kind=QUERY_CUT)
    assert render_stream(stream) == recorded.read_text()


def test_generator_update_count():
    s = generate_stream("sliding-window", 10, 250, seed=1, query_every=10)
    assert sum(1 for e in s.events if e.kind in (INSERT, DELETE)) == 250
    assert sum(1 for e in s.events if e.kind == QUERY_VALUE) == 25


def test_dense_regular_sustains_degree_floor():
    stream = generate_stream("dense-regular", 32, 600, seed=11)
    g = DynamicGraph(32)
    warmed = False
    for ev in stream.events:
        if ev.kind == INSERT:
            g.insert_edge(ev.edge)
        elif ev.kind == DELETE:
            g.delete_edge(ev.edge)
        if not warmed and g.min_degree() >= 8:
            warmed = True
        elif warmed:
            assert g.min_degree() >= 8
    assert warmed


def test_dense_regular_degree_flag():
    stream = generate_stream("dense-regular", 24, 500, seed=2, degree=6)
    g = DynamicGraph(24)
    floors = []
    for ev in stream.events:
        if ev.kind == INSERT:
            g.insert_edge(ev.edge)
        elif ev.kind == DELETE:
            g.delete_edge(ev.edge)
        floors.append(g.min_degree())
    assert max(floors) >= 6
    assert floors[-1] >= 6


@pytest.mark.parametrize(
    ("model", "n", "degree", "message"),
    [("dense-regular", 3, None, r"degree must be in 1\.\.1"),
     ("dense-regular", 2, None, r"degree must be in 1\.\.0"),
     ("dense-regular", 8, 7, r"degree must be in 1\.\.6"),
     ("dense-regular", 8, 0, r"degree must be in 1\.\.6"),
     ("erdos-insert-delete", 8, 3, "degree applies to the dense-regular model only"),
     ("sliding-window", 8, 3, "degree applies to the dense-regular model only")],
    ids=["3-None", "2-None", "8-7", "8-0", "erdos-insert-delete-8-3",
         "sliding-window-8-3"],
)
def test_dense_regular_rejects_degree_it_cannot_keep(model, n, degree, message):
    # the default max(2, n // 4) is n - 1 at n = 3 and above it at n = 2;
    # n - 1 is the complete graph, which the churn must break; the other
    # models keep no degree, so they take none rather than ignore it
    with pytest.raises(ValueError, match=message):
        generate_stream(model, n, 12, seed=0, degree=degree)


@pytest.mark.parametrize(
    ("model", "n", "kwargs", "message"),
    [("erdos-insert-delete", 1, {}, "at least two vertices, got 1"),
     ("erdos-insert-delete", 8, {"steps": -1}, "steps must be at least 0, got -1"),
     ("erdos-insert-delete", 8, {"query_every": -1},
      "query_every must be at least 0, got -1"),
     ("erdos-insert-delete", 8, {"query_every": 2, "query_kind": "+"},
      r"query_kind must be '\?' or '\?e', got '\+'"),
     ("zigzag", 8, {}, "unknown model 'zigzag'")],
    ids=["n1", "negative-steps", "negative-query-every", "update-query-kind",
         "unknown-model"],
)
def test_generate_stream_rejects_bad_argument(model, n, kwargs, message):
    # each is caught where it enters: a negative query_every would ask a
    # query after every |query_every|-th update, a negative steps would give
    # an empty stream, and an update kind would give queries no edge
    args = {"steps": 10, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=message):
        generate_stream(model, n, **args)


def test_cut_query_kind():
    s = generate_stream("erdos-insert-delete", 8, 20, seed=0, query_every=5,
                        query_kind=QUERY_CUT)
    kinds = {e.kind for e in s.events}
    assert QUERY_CUT in kinds and QUERY_VALUE not in kinds
