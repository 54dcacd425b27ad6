"""Bipartite matching between a cluster's requests and its caches.

Requests sit on the left, caches on the right.  max_matching runs
Hopcroft-Karp with a fixed scan order (left vertices ascending, adjacency in
stored order), so the returned assignment is deterministic for a given graph,
not merely of deterministic size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_INF = float("inf")


def deal_round_robin(copies, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(cache_ids, cache_starts) after dealing copies[n] copies of file n, in
    file order, round-robin to d caches: file n's caches, ascending, are
    cache_ids[cache_starts[n]:cache_starts[n] + copies[n]]."""
    owner = np.repeat(np.arange(len(copies)), copies)  # file behind each dealt copy
    base = owner * d
    cache_ids = np.sort(base + np.arange(owner.size) % d) - base
    return cache_ids, np.cumsum(copies) - copies


@dataclass(frozen=True)
class ClusterBipartiteGraph:
    num_left: int
    num_right: int
    adjacency: tuple[tuple[int, ...], ...]  # adjacency[u] = caches usable by u

    def __post_init__(self):
        if self.num_left < 0 or self.num_right < 0:
            raise DomainError("vertex counts must be nonnegative")
        if len(self.adjacency) != self.num_left:
            raise DomainError("adjacency must list every left vertex")
        for nbrs in self.adjacency:
            for v in nbrs:
                if not 0 <= v < self.num_right:
                    raise DomainError(f"right vertex {v} out of range")


@dataclass(frozen=True)
class MatchingOutcome:
    pairs: tuple[tuple[int, int], ...]  # (left, right), left ascending
    unmatched_left: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


def max_matching(graph: ClusterBipartiteGraph) -> MatchingOutcome:
    """Maximum bipartite matching (Hopcroft-Karp), deterministic tie-breaking."""
    nl, nr = graph.num_left, graph.num_right
    adj = graph.adjacency
    match_l = [-1] * nl
    match_r = [-1] * nr
    dist = [0.0] * nl

    def bfs() -> bool:
        queue = deque()
        for u in range(nl):
            if match_l[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in range(nl):
            if match_l[u] == -1:
                dfs(u)

    pairs = tuple((u, match_l[u]) for u in range(nl) if match_l[u] != -1)
    unmatched = tuple(u for u in range(nl) if match_l[u] == -1)
    return MatchingOutcome(pairs=pairs, unmatched_left=unmatched)

