"""Independent verifiers of the program's outputs.

Nothing here imports the program: each check recomputes what a correct
output must be (a greedy MIS, a maximal-matching test, an edge-set
replay) or tests a property the paper proves (Theorems 1 and 2, one hop
of influence per synchronous round).  Every function returns a list of
human-readable faults; an empty list means the output passed.
``selftest.py`` shows that each one rejects a corrupted output.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Adjacency = Sequence[Sequence[int]]


def _states(config: Mapping) -> dict:
    """Node-keyed states, whether keys are ints or JSON strings."""
    return {int(k): v for k, v in config.items()}


def check_matching(adj: Adjacency, config: Mapping) -> List[str]:
    """SMM's legitimate configurations (Lemma 8): reciprocated pointers
    lie on edges and form a maximal matching, and every node outside it
    points to null."""
    ptr = _states(config)
    n = len(adj)
    if sorted(ptr) != list(range(n)):
        return [f"configuration covers {len(ptr)} nodes, graph has {n}"]
    faults = []
    nbrs = [set(row) for row in adj]
    matched = [False] * n
    for i in range(n):
        j = ptr[i]
        if j is None:
            continue
        if j not in nbrs[i]:
            faults.append(f"node {i} points to non-neighbour {j}")
        elif ptr.get(j) == i:
            matched[i] = True
        else:
            faults.append(f"node {i} points to {j}, which does not point back")
    for i in range(n):
        if not matched[i]:
            for j in adj[i]:
                if j > i and not matched[j]:
                    faults.append(f"edge ({i}, {j}) joins two unmatched nodes")
                    break
    return faults


def greedy_mis_descending(adj: Adjacency) -> Set[int]:
    """The MIS taken greedily in descending id order — the unique stable
    set of SIS."""
    chosen: Set[int] = set()
    for i in range(len(adj) - 1, -1, -1):
        if not any(j in chosen for j in adj[i]):
            chosen.add(i)
    return chosen


def check_mis(adj: Adjacency, config: Mapping) -> List[str]:
    """SIS's legitimate configuration: the in-set nodes are exactly the
    greedy MIS by descending id."""
    x = _states(config)
    if sorted(x) != list(range(len(adj))):
        return [f"configuration covers {len(x)} nodes, graph has {len(adj)}"]
    got = {i for i, v in x.items() if v == 1}
    want = greedy_mis_descending(adj)
    if got == want:
        return []
    extra = sorted(got - want)[:3]
    missing = sorted(want - got)[:3]
    return [f"in-set differs from greedy MIS: extra {extra}, missing {missing}"]


def check_protocol(protocol: str, adj: Adjacency, config: Mapping) -> List[str]:
    if protocol == "smm":
        return check_matching(adj, config)
    if protocol == "sis":
        return check_mis(adj, config)
    raise ValueError(f"no verifier for protocol {protocol!r}")


def check_round_bound(protocol: str, n: int, rounds: int) -> List[str]:
    """Theorem 1 (SMM stabilizes within n+1 rounds) and Theorem 2 (SIS
    within n rounds)."""
    bound = n + 1 if protocol == "smm" else n
    if rounds > bound:
        return [f"{protocol} took {rounds} rounds on n={n}, bound {bound}"]
    return []


def check_trial(
    protocol: str, adj: Adjacency, stabilized: bool, rounds: int, final: Mapping
) -> List[str]:
    """Everything a synchronous trial must satisfy."""
    faults = [] if stabilized else [f"{protocol} trial did not stabilize"]
    faults += check_round_bound(protocol, len(adj), rounds)
    return faults + check_protocol(protocol, adj, final)


def check_edge_replay(
    replayed: Set[Tuple[int, int]], reported: Iterable[Tuple[int, int]]
) -> List[str]:
    """The program's edge set equals the benchmark's replay of every
    added and removed edge."""
    got = {(min(u, v), max(u, v)) for u, v in reported}
    if got == replayed:
        return []
    return [
        f"edge set differs from replay: {len(got - replayed)} unexpected, "
        f"{len(replayed - got)} missing (e.g. "
        f"{sorted(got - replayed)[:2]} / {sorted(replayed - got)[:2]})"
    ]


def check_locality(
    samples: Sequence[Tuple[bool, int, Optional[int]]]
) -> Tuple[int, List[str]]:
    """One hop per synchronous round: an event applied to a quiescent
    configuration cannot make a node beyond distance ``r`` move within
    ``r`` rounds, so its containment radius is at most its recovery
    rounds.

    ``samples`` holds ``(quiescent_before, rounds, radius)`` per event,
    in order.  Events fired before the previous recovery finished are
    skipped: their moves mix with the earlier event's.  Returns the
    number of events checked and the faults.
    """
    checked, faults = 0, []
    for k, (quiet, rounds, radius) in enumerate(samples):
        if not quiet:
            continue
        checked += 1
        if radius is not None and radius > rounds:
            faults.append(
                f"event {k}: containment radius {radius} > {rounds} rounds"
            )
    return checked, faults
