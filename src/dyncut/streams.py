"""Update stream format, parsing, and seeded stream generators."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph_core import EdgeKey, edge_key

INSERT = "+"
DELETE = "-"
QUERY_VALUE = "?"
QUERY_CUT = "?e"

MODELS = ("erdos-insert-delete", "sliding-window", "dense-regular")


class StreamFormatError(ValueError):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class Event(NamedTuple):
    kind: str
    edge: EdgeKey | None = None


@dataclass
class UpdateStream:
    n: int
    events: list[Event]
    # source line per event, for replay diagnostics; not part of equality
    lines: list[int] = field(default_factory=list, compare=False)


def parse_stream(text: str) -> UpdateStream:
    n: int | None = None
    events: list[Event] = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise StreamFormatError(lineno, "expected header 'n <count>'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise StreamFormatError(lineno, f"bad vertex count {tokens[1]!r}")
            if n < 1:
                raise StreamFormatError(lineno, "vertex count must be positive")
            continue
        kind = tokens[0]
        if kind in (QUERY_VALUE, QUERY_CUT):
            if len(tokens) != 1:
                raise StreamFormatError(lineno, f"query takes no arguments: {raw!r}")
            events.append(Event(kind))
        elif kind in (INSERT, DELETE):
            if len(tokens) != 3:
                raise StreamFormatError(lineno, f"expected '{kind} u v': {raw!r}")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise StreamFormatError(lineno, f"bad endpoints in {raw!r}")
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise StreamFormatError(lineno, f"endpoints out of range in {raw!r}")
            events.append(Event(kind, edge_key(u, v)))
        else:
            raise StreamFormatError(lineno, f"unknown event {kind!r}")
        lines.append(lineno)
    if n is None:
        raise StreamFormatError(1, "empty stream, expected 'n <count>' header")
    return UpdateStream(n, events, lines)


def render_stream(stream: UpdateStream) -> str:
    out = [f"n {stream.n}"]
    for ev in stream.events:
        if ev.kind in (INSERT, DELETE):
            out.append(f"{ev.kind} {ev.edge[0]} {ev.edge[1]}")
        else:
            out.append(ev.kind)
    return "\n".join(out) + "\n"


class _ReplayState:
    """Tracks the graph a generator has emitted so far, for legal updates."""

    def __init__(self, n: int, rng: random.Random) -> None:
        self.n = n
        self.rng = rng
        self.order: list[EdgeKey] = []
        # position of each present edge in order; its keys are the edge set
        self.index: dict[EdgeKey, int] = {}
        self.degree = [0] * n

    def _register(self, e: EdgeKey) -> None:
        self.index[e] = len(self.order)
        self.order.append(e)
        self.degree[e[0]] += 1
        self.degree[e[1]] += 1

    def _unregister(self, e: EdgeKey) -> None:
        i = self.index.pop(e)
        last = self.order.pop()
        if last != e:
            self.order[i] = last
            self.index[last] = i
        self.degree[e[0]] -= 1
        self.degree[e[1]] -= 1

    def full(self) -> bool:
        return len(self.index) == self.n * (self.n - 1) // 2

    def random_absent(self) -> EdgeKey:
        if self.full():
            raise ValueError("graph is complete")
        while True:
            u = self.rng.randrange(self.n)
            v = self.rng.randrange(self.n)
            if u != v and edge_key(u, v) not in self.index:
                return edge_key(u, v)

    def random_present(self) -> EdgeKey:
        return self.order[self.rng.randrange(len(self.order))]

    def insert(self, e: EdgeKey) -> Event:
        self._register(e)
        return Event(INSERT, e)

    def delete(self, e: EdgeKey) -> Event:
        self._unregister(e)
        return Event(DELETE, e)


def _erdos_steps(state: _ReplayState, steps: int):
    # grow toward roughly 2n edges, then churn around that density
    target = 2 * state.n
    for _ in range(steps):
        m = len(state.index)
        if m == 0:
            yield state.insert(state.random_absent())
        elif state.full():
            yield state.delete(state.random_present())
        else:
            p_insert = 0.75 if m < target else 0.4
            if state.rng.random() < p_insert:
                yield state.insert(state.random_absent())
            else:
                yield state.delete(state.random_present())


def _sliding_window_steps(state: _ReplayState, steps: int):
    window: deque[EdgeKey] = deque()
    limit = max(8, 2 * state.n)
    for _ in range(steps):
        if len(window) >= limit or state.full():
            yield state.delete(window.popleft())
        else:
            e = state.random_absent()
            window.append(e)
            yield state.insert(e)


def _dense_regular_steps(state: _ReplayState, steps: int, degree: int):
    # warm up with a circulant graph so the minimum degree reaches the
    # floor, then churn with deletions gated on both endpoint degrees
    floor = degree + (degree % 2)
    emitted = 0
    for offset in range(1, floor // 2 + 1):
        for v in range(state.n):
            if emitted >= steps:
                return
            e = edge_key(v, (v + offset) % state.n)
            if e not in state.index:
                emitted += 1
                yield state.insert(e)
    deletable: list[EdgeKey] = []
    while emitted < steps:
        want_delete = emitted % 2 == 1
        if want_delete:
            deletable = [
                e
                for e in state.order
                if state.degree[e[0]] > floor and state.degree[e[1]] > floor
            ]
        if want_delete and deletable:
            e = deletable[state.rng.randrange(len(deletable))]
            emitted += 1
            yield state.delete(e)
        elif not state.full():
            emitted += 1
            yield state.insert(state.random_absent())
        else:
            e = state.random_present()
            emitted += 1
            yield state.delete(e)


def dense_regular_degree(n: int, degree: int | None = None) -> int:
    """The dense-regular degree floor, by default max(2, n // 4); n - 1 is the
    complete graph, which the churn must break, so it must be in 1..n-2."""
    floor = max(2, n // 4) if degree is None else degree
    if not 1 <= floor <= n - 2:
        got = floor if degree is not None else f"the default {floor} at n = {n}"
        raise ValueError(f"degree must be in 1..{n - 2}, got {got}")
    return floor


def generate_stream(
    model: str,
    n: int,
    steps: int,
    seed: int,
    query_every: int = 0,
    degree: int | None = None,
    query_kind: str = QUERY_VALUE,
) -> UpdateStream:
    """Seeded stream of `steps` legal updates on vertices 0..n-1.

    model: one of MODELS. n: at least 2. steps: at least 0. seed: any
    integer; the same arguments give the same stream. query_every: at
    least 0; a query of `query_kind` (QUERY_VALUE or QUERY_CUT) follows
    every query_every-th update, and 0 asks none. degree: the
    dense-regular floor, in 1..n-2, by default max(2, n // 4); the other
    models take none. Each bad argument raises ValueError naming it
    before any update is drawn.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    if n < 2:
        raise ValueError(f"streams need at least two vertices, got {n}")
    for name, value in (("steps", steps), ("query_every", query_every)):
        if value < 0:
            raise ValueError(f"{name} must be at least 0, got {value}")
    if query_kind not in (QUERY_VALUE, QUERY_CUT):
        raise ValueError(f"query_kind must be {QUERY_VALUE!r} or {QUERY_CUT!r},"
                         f" got {query_kind!r}")
    if model != "dense-regular" and degree is not None:
        raise ValueError("degree applies to the dense-regular model only")
    state = _ReplayState(n, random.Random(seed))
    if model == "erdos-insert-delete":
        updates = _erdos_steps(state, steps)
    elif model == "sliding-window":
        updates = _sliding_window_steps(state, steps)
    else:
        updates = _dense_regular_steps(state, steps, dense_regular_degree(n, degree))
    events: list[Event] = []
    emitted = 0
    for ev in updates:
        events.append(ev)
        emitted += 1
        if query_every and emitted % query_every == 0:
            events.append(Event(query_kind))
    return UpdateStream(n, events)
