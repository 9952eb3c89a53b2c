"""Unit-capacity flow networks for internally disjoint path systems.

Every graph vertex v is split into an entry node 2v and an exit node
2v+1 joined by a capacity-1 arc, so a unit of flow through v claims the
whole vertex.  Terminals are left unsplit: the source emits from its exit
node and target vertices absorb into a super-sink, which encodes "each
path meets the target set exactly once".  Augmenting paths are found by
breadth-first search scanning arcs in insertion order, so identical
inputs always produce identical flows.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph


class FlowNetwork:
    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.head: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.frozen: set[int] = set()

    def add_arc(self, u: int, v: int, cap: int) -> int:
        aid = len(self.head)
        self.head.append(v)
        self.cap.append(cap)
        self.adj[u].append(aid)
        self.head.append(u)
        self.cap.append(0)
        self.adj[v].append(aid + 1)
        return aid

    def snapshot(self) -> list[int]:
        return list(self.cap)

    def push(self, arc: int, amount: int = 1) -> None:
        self.cap[arc] -= amount
        self.cap[arc ^ 1] += amount

    def flow_on(self, arc: int, baseline: list[int]) -> int:
        return baseline[arc] - self.cap[arc]

    def freeze(self, arc: int) -> None:
        self.frozen.add(arc)
        self.frozen.add(arc ^ 1)

    def unfreeze_all(self) -> None:
        self.frozen.clear()

    def augment(self, source: int, sink: int) -> bool:
        """Push one unit along a shortest residual path; False if none."""
        prev_arc = [-1] * self.num_nodes
        prev_arc[source] = -2
        q = deque([source])
        while q:
            u = q.popleft()
            if u == sink:
                break
            for aid in self.adj[u]:
                if self.cap[aid] <= 0 or aid in self.frozen:
                    continue
                v = self.head[aid]
                if prev_arc[v] == -1:
                    prev_arc[v] = aid
                    q.append(v)
        if prev_arc[sink] == -1:
            return False
        v = sink
        while v != source:
            aid = prev_arc[v]
            self.push(aid)
            v = self.head[aid ^ 1]
        return True

    def max_flow(self, source: int, sink: int, limit: int) -> int:
        sent = 0
        while sent < limit and self.augment(source, sink):
            sent += 1
        return sent

    def reachable(self, source: int) -> set[int]:
        """Nodes reachable through positive residual capacity."""
        seen = {source}
        q = deque([source])
        while q:
            u = q.popleft()
            for aid in self.adj[u]:
                if self.cap[aid] > 0 and aid not in self.frozen:
                    v = self.head[aid]
                    if v not in seen:
                        seen.add(v)
                        q.append(v)
        return seen


def entry(v: int) -> int:
    return 2 * v


def exit_(v: int) -> int:
    return 2 * v + 1


class SplitNetwork(FlowNetwork):
    """One vertex-split network per graph, reused by every query on it.

    Every vertex is split, every edge gets both directions, and every
    vertex has an absorbing arc into the super-sink that stays closed
    until a query opens it.  Each query first restores the saved
    baseline capacities, so no network is rebuilt between queries.
    """

    def __init__(self, g: Graph):
        super().__init__(2 * g.n + 1)
        self.sink = 2 * g.n
        self.split_arcs = [self.add_arc(entry(v), exit_(v), 1) for v in range(g.n)]
        self.edge_arcs: dict[tuple[int, int], int] = {}
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                self.edge_arcs[(a, b)] = self.add_arc(exit_(a), entry(b), 1)
        self.sink_arcs = [self.add_arc(entry(v), self.sink, 0) for v in range(g.n)]
        self.base = self.snapshot()

    def flow_into(self, x: int, targets: dict[int, int], limit: int) -> int:
        """Max flow, capped at limit, from x into targets.

        As in build_fan_network, targets maps each target vertex to how
        many paths may end there; targets absorb, so no path runs
        through one.
        """
        cap = self.cap
        cap[:] = self.base
        for t, mult in targets.items():
            cap[self.split_arcs[t]] = 0
            cap[self.sink_arcs[t]] = mult
        return self.max_flow(exit_(x), self.sink, limit)

    def min_cut(self, x: int, t: int) -> frozenset[int]:
        """The vertex cut behind the last flow_into(x, {t: ...}) that
        stopped short of its limit."""
        reach = self.reachable(exit_(x))
        cut: set[int] = set()
        for v, aid in enumerate(self.split_arcs):
            if self.cap[aid] == 0 and entry(v) in reach and exit_(v) not in reach:
                cut.add(v)
        for (a, b), aid in self.edge_arcs.items():
            if self.cap[aid] == 0 and exit_(a) in reach and entry(b) not in reach:
                if b != t and b != x:
                    cut.add(b)
        return frozenset(cut)


def build_fan_network(
    g: Graph, x: int, targets: dict[int, int]
) -> tuple[FlowNetwork, int, dict[tuple[int, int], int], dict[int, int], dict[int, int]]:
    """Network for internally disjoint paths from x into a target set.

    targets maps each target vertex to its endpoint multiplicity (how many
    fan arms may end there).  Returns the network, the sink node, a map
    from directed graph edges to arc ids, a map from target vertex to its
    absorbing arc id, and a map from interior vertex to its split arc id.
    """
    net = FlowNetwork(2 * g.n + 1)
    sink = 2 * g.n
    split_arcs: dict[int, int] = {}
    for v in range(g.n):
        if v == x or v in targets:
            continue
        split_arcs[v] = net.add_arc(entry(v), exit_(v), 1)
    sink_arcs: dict[int, int] = {}
    for t in sorted(targets):
        sink_arcs[t] = net.add_arc(entry(t), sink, targets[t])
    edge_arcs: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        for a, b in ((u, v), (v, u)):
            if a in targets or b == x:
                continue  # targets absorb; nothing re-enters the source
            edge_arcs[(a, b)] = net.add_arc(exit_(a), entry(b), 1)
    return net, sink, edge_arcs, sink_arcs, split_arcs


def extract_arms(
    g: Graph,
    net: FlowNetwork,
    x: int,
    baseline: list[int],
    edge_arcs: dict[tuple[int, int], int],
    sink_arcs: dict[int, int],
    count: int,
) -> list[list[int]]:
    """Decompose the flow into vertex lists, lowest continuation first."""
    resid = {e: net.flow_on(aid, baseline) for e, aid in edge_arcs.items()}
    absorbed = {t: net.flow_on(aid, baseline) for t, aid in sink_arcs.items()}
    out_by: dict[int, list[int]] = {}
    for (a, b), f in resid.items():
        if f > 0:
            out_by.setdefault(a, []).append(b)
    for k in out_by:
        out_by[k].sort()
    arms: list[list[int]] = []
    for _ in range(count):
        arm = [x]
        v = x
        while True:
            if v != x and absorbed.get(v, 0) > 0:
                absorbed[v] -= 1
                break
            nxt = out_by[v].pop(0)
            resid[(v, nxt)] -= 1
            arm.append(nxt)
            v = nxt
        arms.append(arm)
    return arms
