"""Seeded inputs, made by the benchmark's own code.

The program receives only plain node/edge lists, configurations,
positions and fault events.  Every generator takes a
``numpy.random.Generator`` derived from the run's ``--seed`` and a
stream label, so one seed always gives the same inputs and no two
streams share draws.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


def rng_for(seed: int, *labels: int) -> np.random.Generator:
    """An independent generator for one input stream of the run."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *labels]))


# ----------------------------------------------------------------------
# graph families (tens to about a hundred nodes for the sweep)
# ----------------------------------------------------------------------
def cycle_edges(n: int) -> List[Edge]:
    return [(i, (i + 1) % n) for i in range(n)]


def grid_edges(rows: int, cols: int) -> List[Edge]:
    out = []
    for r in range(rows):
        for c in range(cols):
            k = r * cols + c
            if c + 1 < cols:
                out.append((k, k + 1))
            if r + 1 < rows:
                out.append((k, k + cols))
    return out


def tree_edges(n: int, gen: np.random.Generator) -> List[Edge]:
    """Random recursive tree: node ``i`` attaches to a uniform earlier node."""
    return [(int(gen.integers(i)), i) for i in range(1, n)]


def _connect(n: int, edges: Set[Edge], gen: np.random.Generator) -> None:
    """Join components with random edges (in place) so the graph is
    connected, as the paper's model assumes."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    roots = sorted({find(x) for x in range(n)})
    members: Dict[int, List[int]] = {}
    for x in range(n):
        members.setdefault(find(x), []).append(x)
    for a, b in zip(roots, roots[1:]):
        u = members[a][int(gen.integers(len(members[a])))]
        v = members[b][int(gen.integers(len(members[b])))]
        edges.add((min(u, v), max(u, v)))


def er_edges(n: int, avg_degree: float, gen: np.random.Generator) -> List[Edge]:
    """G(n, p) with ``p = avg_degree / (n - 1)``, patched to be connected."""
    pairs = n * (n - 1) // 2
    m = int(gen.binomial(pairs, avg_degree / (n - 1)))
    edges: Set[Edge] = set()
    while len(edges) < m:
        k = 2 * (m - len(edges)) + 16
        u = gen.integers(n, size=k)
        v = gen.integers(n, size=k)
        for a, b in zip(u.tolist(), v.tolist()):
            if a != b and len(edges) < m:
                edges.add((min(a, b), max(a, b)))
    _connect(n, edges, gen)
    return sorted(edges)


def disk_edges(points: np.ndarray, radius: float) -> List[Edge]:
    """Unit-disk edges: pairs at distance at most ``radius``."""
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    close = (diff ** 2).sum(axis=2) <= radius * radius
    iu, ju = np.nonzero(np.triu(close, k=1))
    return list(zip(iu.tolist(), ju.tolist()))


def udg_edges(n: int, gen: np.random.Generator) -> List[Edge]:
    """Random geometric graph in the unit square, patched to be connected."""
    radius = math.sqrt(2.5 * math.log(n) / n)
    edges = set(disk_edges(gen.random((n, 2)), radius))
    _connect(n, edges, gen)
    return sorted(edges)


#: The sweep's cells: (family, n).  Several families from tens to about
#: a hundred nodes, as in the E1/E2 sweeps.
SWEEP_CELLS: Tuple[Tuple[str, int], ...] = (
    ("cycle", 32),
    ("tree", 48),
    ("grid", 64),
    ("er", 96),
    ("udg", 80),
    ("er", 40),
)


def family_edges(family: str, n: int, gen: np.random.Generator) -> List[Edge]:
    if family == "cycle":
        return cycle_edges(n)
    if family == "grid":
        side = int(math.isqrt(n))
        return grid_edges(side, n // side)
    if family == "tree":
        return tree_edges(n, gen)
    if family == "er":
        return er_edges(n, 2.0 * math.log(n), gen)
    if family == "udg":
        return udg_edges(n, gen)
    raise ValueError(f"unknown family {family!r}")


# ----------------------------------------------------------------------
# configurations
# ----------------------------------------------------------------------
def adjacency(n: int, edges: Sequence[Edge]) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def random_smm_config(
    adj: Sequence[Sequence[int]], gen: np.random.Generator
) -> Dict[int, Optional[int]]:
    """Each pointer uniform over ``{null} ∪ N(i)``."""
    picks = gen.random(len(adj))
    out: Dict[int, Optional[int]] = {}
    for i, row in enumerate(adj):
        k = int(picks[i] * (len(row) + 1))
        out[i] = None if k == 0 else row[k - 1]
    return out


def random_sis_config(n: int, gen: np.random.Generator) -> Dict[int, int]:
    return {i: int(b) for i, b in enumerate(gen.integers(2, size=n).tolist())}


# ----------------------------------------------------------------------
# churn stream: Poisson chunks against the current edge set
# ----------------------------------------------------------------------
class EdgeReplay:
    """The benchmark's own copy of a live graph's edge set, advanced by
    replaying every churn event it generates."""

    def __init__(self, n: int, edges: Sequence[Edge]) -> None:
        self.n = n
        self.edges: Set[Edge] = set(edges)
        self._list: List[Edge] = sorted(self.edges)
        self._pos: Dict[Edge, int] = {e: k for k, e in enumerate(self._list)}

    def add(self, e: Edge) -> None:
        self.edges.add(e)
        self._pos[e] = len(self._list)
        self._list.append(e)

    def remove(self, e: Edge) -> None:
        self.edges.remove(e)
        k = self._pos.pop(e)
        last = self._list.pop()
        if k < len(self._list):
            self._list[k] = last
            self._pos[last] = k

    def random_edge(self, gen: np.random.Generator) -> Edge:
        return self._list[int(gen.integers(len(self._list)))]

    def adjacency(self) -> List[List[int]]:
        return adjacency(self.n, sorted(self.edges))


def churn_chunk(
    replay: EdgeReplay, gen: np.random.Generator, events: int, rate: float
) -> List[dict]:
    """``events`` Poisson arrivals at ``rate`` events per round, each a
    one-link churn (remove or add, even odds) or a one-node perturb.

    Returns plain event records; churn records are already applied to
    ``replay``.
    """
    out = []
    clock = 0.0
    for _ in range(events):
        clock += float(gen.exponential(1.0 / rate))
        rnd = int(clock)
        if gen.random() < 0.5:
            if gen.random() < 0.5:
                e = replay.random_edge(gen)
                replay.remove(e)
                out.append({"round": rnd, "kind": "churn", "remove": e})
            else:
                while True:
                    u, v = (int(x) for x in gen.integers(replay.n, size=2))
                    e = (min(u, v), max(u, v))
                    if u != v and e not in replay.edges:
                        break
                replay.add(e)
                out.append({"round": rnd, "kind": "churn", "add": e})
        else:
            node = int(gen.integers(replay.n))
            out.append({"round": rnd, "kind": "perturb", "node": node})
    return out


# ----------------------------------------------------------------------
# beacon simulator deployments
# ----------------------------------------------------------------------
def safe_radius(n: int) -> float:
    """The connectivity-safe unit-disk radius used by E8."""
    return float(min(1.2, math.sqrt(3.0 * math.log(max(n, 2)) / max(n, 2))))


# ----------------------------------------------------------------------
# served sweeps (generator form: building the graph is served work)
# ----------------------------------------------------------------------
SERVED_NODES = 1024
SERVED_TRIALS = 8


def served_body(seed: int, index: int) -> dict:
    """The ``index``-th distinct sync sweep of a run: ER(1024), 8 random
    starts, SMM and SIS alternating."""
    gen = rng_for(seed, 0x5E7, index)
    return {
        "mode": "sync",
        "label": f"bench-{index}",
        "sweep": {
            "protocol": "smm" if index % 2 == 0 else "sis",
            "family": "er-sparse",
            "n": SERVED_NODES,
            "trials": SERVED_TRIALS,
            "seed": int(gen.integers(1 << 31)),
            "graph_seed": int(gen.integers(1 << 31)),
        },
    }
