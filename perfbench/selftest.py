#!/usr/bin/env python3
"""Show that every verifier accepts a correct output and rejects a
corrupted one.

    python3 perfbench/selftest.py

Run from a checkout root.  The correct outputs are the program's own:
an SMM and an SIS run on a seeded graph and a live stream engine's edge
set.  Each is checked as is, then with one deliberate corruption (a
flipped pointer, a dropped MIS node, a missing edge, ...), which the
verifier must reject.  Exit status 1 if any verifier accepts a
corrupted output or rejects a correct one.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from pbench import verify  # noqa: E402
from pbench.inputs import EdgeReplay, adjacency, er_edges, rng_for  # noqa: E402


def main() -> int:
    from repro.engine import run
    from repro.graphs.graph import Graph
    from repro.resilience.plan import FaultEvent, FaultPlan
    from repro.streaming import StreamEngine

    n = 60
    edges = er_edges(n, 4.0, rng_for(7, 1))
    adj = adjacency(n, edges)
    graph = Graph(range(n), edges)
    smm = run("smm", graph)
    sis = run("sis", graph)
    ptr = dict(smm.final)
    x = dict(sis.final)
    matched = next(i for i in range(n) if ptr[i] is not None)
    partner = ptr[matched]
    unmatched = next((i for i in range(n) if ptr[i] is None), None)
    in_set = next(i for i in range(n) if x[i] == 1)

    cases = []  # (name, faults, should_pass)

    def case(name, faults, should_pass=False):
        cases.append((name, faults, should_pass))

    case("matching: program output", verify.check_matching(adj, ptr), True)
    case("matching: one pointer flipped to null",
         verify.check_matching(adj, {**ptr, matched: None}))
    other = next(j for j in adj[matched] if j != partner) if len(adj[matched]) > 1 else None
    if other is not None:
        case("matching: one pointer flipped to another neighbour",
             verify.check_matching(adj, {**ptr, matched: other}))
    case("matching: pointer to a non-neighbour",
         verify.check_matching(adj, {**ptr, matched: next(
             j for j in range(n) if j != matched and j not in adj[matched])}))
    case("matching: one matched pair dissolved",
         verify.check_matching(adj, {**ptr, matched: None, partner: None}))
    if unmatched is not None and adj[unmatched]:
        case("matching: unmatched node pointing",
             verify.check_matching(adj, {**ptr, unmatched: adj[unmatched][0]}))
    case("mis: program output", verify.check_mis(adj, x), True)
    case("mis: one MIS node dropped", verify.check_mis(adj, {**x, in_set: 0}))
    outsider = next(i for i in range(n) if x[i] == 0)
    case("mis: one node added", verify.check_mis(adj, {**x, outsider: 1}))
    case("theorem 1: n+1 rounds accepted", verify.check_round_bound("smm", n, n + 1), True)
    case("theorem 1: n+2 rounds rejected", verify.check_round_bound("smm", n, n + 2))
    case("theorem 2: n rounds accepted", verify.check_round_bound("sis", n, n), True)
    case("theorem 2: n+1 rounds rejected", verify.check_round_bound("sis", n, n + 1))
    case("trial: not stabilized",
         verify.check_trial("smm", adj, False, smm.rounds, ptr))

    replay = EdgeReplay(n, edges)
    engine = StreamEngine("smm", graph)
    add = next((u, v) for u in range(n) for v in range(u + 1, n)
               if (u, v) not in replay.edges)
    gone = edges[0]
    engine.run(FaultPlan(events=(
        FaultEvent(1, "churn", add_edges=(add,)),
        FaultEvent(2, "churn", remove_edges=(gone,)),
    )))
    replay.add(add)
    replay.remove(gone)
    live = set(engine.graph.edges)
    case("replay: program edge set", verify.check_edge_replay(replay.edges, live), True)
    case("replay: one edge missing",
         verify.check_edge_replay(replay.edges, live - {add}))
    case("replay: one edge extra",
         verify.check_edge_replay(replay.edges, live | {gone}))
    case("replay: live config on replay",
         verify.check_matching(replay.adjacency(), engine.config()), True)
    case("locality: radius within rounds",
         verify.check_locality([(True, 3, 3), (False, 1, 5)])[1], True)
    case("locality: radius beyond rounds",
         verify.check_locality([(True, 2, 3)])[1])

    bad = 0
    for name, faults, should_pass in cases:
        ok = (not faults) == should_pass
        bad += not ok
        verdict = "accepted" if not faults else f"rejected ({faults[0]})"
        print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}")
    print(f"{len(cases) - bad}/{len(cases)} verifier cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
