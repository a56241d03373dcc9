"""Answer checking against the benchmark's own shadow graph.

Nothing here calls into ``dyncut``: the static minimum cut is a separate
Stoer-Wagner written for plain adjacency sets, and witnesses are checked
by a breadth-first search with the witness edges removed.
"""

from __future__ import annotations

from dataclasses import dataclass

INSERT, DELETE = "+", "-"


def _reaches_all(adj: list[set[int]], removed: frozenset = frozenset()) -> bool:
    n = len(adj)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y] and ((x, y) if x < y else (y, x)) not in removed:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


def stoer_wagner_value(adj: list[set[int]]) -> int:
    w = {v: dict.fromkeys(nbrs, 1) for v, nbrs in enumerate(adj)}
    best = None
    while len(w) > 1:
        start = next(iter(w))
        key = dict.fromkeys(w, 0)
        del key[start]
        for x, c in w[start].items():
            key[x] += c
        prev = last = start
        phase = 0
        while key:
            u = max(key, key=key.__getitem__)
            phase = key.pop(u)
            for x, c in w[u].items():
                if x in key:
                    key[x] += c
            prev, last = last, u
        if best is None or phase < best:
            best = phase
        for x, c in w.pop(last).items():
            del w[x][last]
            if x != prev:
                w[prev][x] = w[x][prev] = w[prev].get(x, 0) + c
    return best


def min_cut_value(adj: list[set[int]]) -> int:
    """Exact global minimum cut of a simple graph given as adjacency sets."""
    degree = min(len(a) for a in adj)
    if degree == 0 or not _reaches_all(adj):
        return 0
    if degree == 1:
        return 1
    return stoer_wagner_value(adj)


def witness_problem(adj: list[set[int]], value: int, cut) -> str | None:
    """Why a reported cut is not a valid witness for ``value``, or None."""
    edges = cut.cut_edges
    if len(edges) != value:
        return f"witness has {len(edges)} edges for value {value}"
    for u, v in edges:
        if v not in adj[u]:
            return f"witness edge {(u, v)} is not in the graph"
    if _reaches_all(adj, frozenset(edges)):
        return "witness does not disconnect the graph"
    return None


@dataclass
class Check:
    """Outcome of checking every query answer of one replay."""

    queries: int
    min_degrees: list[int]
    answers_by_quotient: int
    wrong: list[tuple[int, str]]  # (query index, reason)


def check_answers(n: int, preload, ops, answers) -> Check:
    """Replay ``ops`` on a shadow graph and check each answer in turn.

    ``answers[i]`` is the engine's reply to the i-th query in ``ops``: an
    int for a value query, a cut result for a witness query. A value that
    differs from the oracle is wrong; a witness must also hold exactly
    ``value`` graph edges whose removal disconnects the graph.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in preload:
        adj[u].add(v)
        adj[v].add(u)
    min_degrees: list[int] = []
    wrong: list[tuple[int, str]] = []
    by_quotient = 0
    q = 0
    for kind, edge in ops:
        if kind == INSERT:
            adj[edge[0]].add(edge[1])
            adj[edge[1]].add(edge[0])
            continue
        if kind == DELETE:
            adj[edge[0]].discard(edge[1])
            adj[edge[1]].discard(edge[0])
            continue
        answer = answers[q]
        value = answer if isinstance(answer, int) else answer.value
        degree = min(len(a) for a in adj)
        min_degrees.append(degree)
        by_quotient += value < degree
        expected = min_cut_value(adj)
        if value != expected:
            wrong.append((q, f"value {value}, oracle {expected}"))
        elif not isinstance(answer, int):
            problem = witness_problem(adj, value, answer)
            if problem:
                wrong.append((q, problem))
        q += 1
    if q != len(answers):
        raise ValueError(f"{len(answers)} answers for {q} queries")
    return Check(q, min_degrees, by_quotient, wrong)
