"""Port-numbered graphs: construction, validation, serialisation.

``out_port(u, v)`` is the label node ``u`` writes on its end of the edge
towards ``v``; ``in_port(u, v)`` is the label under which that end is
addressed when ``u`` receives.  Set- and multiset-reception machines never
observe in-ports; they are materialised for export and for ordering trace
slots.  In the tree families both labels of an edge end coincide; random
numberings sample them independently.  A node's in-labels share one dict
with its out-labels until an in-label differs from its out-label, so a
tree holds one label dict per node.  Nodes keep the order ``add_node``
first saw them in, which ``nodes``, the exports and :class:`RunPlan` follow.
"""

from __future__ import annotations

import json
from array import array
from itertools import islice
from typing import Any, Callable, Iterable

from .errors import DegreeBoundError, FormatError, NumberingError


class PortNumberedGraph:
    """Finite simple undirected graph with per-edge directional port labels.

    Edge ``k`` joins ``_tails[k]`` and ``_heads[k]``, two parallel lists in
    insertion order, so an edge costs two list slots and no tuple;
    :meth:`edges` pairs them on read.  ``true_degree`` records the degree a
    node has in the full structure a ball was cut from, for the nodes the
    ball cuts edges from; consumers that need exact answers read
    :meth:`declared_degree` to detect truncation.
    """

    def __init__(self):
        self._out: dict[Any, dict[Any, Any]] = {}
        self._in: dict[Any, dict[Any, Any]] = {}
        self._tails: list[Any] = []
        self._heads: list[Any] = []
        self.colours: dict[Any, str] = {}
        self.true_degree: dict[Any, int] = {}
        self._plans: dict[int, RunPlan] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, v, colour: str | None = None):
        if v not in self._out:
            self._plans.clear()
            self._out[v] = self._in[v] = {}
        if colour is not None:
            self.colours[v] = colour
        return v

    def add_edge(self, u, v, out_uv, out_vu, in_uv=None, in_vu=None):
        """Add the edge {u, v} with out-labels and optional in-labels.

        In-labels default to the corresponding out-labels, which is the
        pairing the tree constructions use.
        """
        if u == v:
            raise NumberingError("self-loops are not allowed")
        # Every check runs before a node is added, so a refused edge leaves
        # the graph as it was; a new node has no labels yet.
        out_u, out_v = self._out.get(u, {}), self._out.get(v, {})
        if v in out_u:
            raise NumberingError(f"duplicate edge {u!r} -- {v!r}")
        in_uv = out_uv if in_uv is None else in_uv
        in_vu = out_vu if in_vu is None else in_vu
        if out_uv in out_u.values():
            raise NumberingError(f"node {u!r} reuses out-port {out_uv!r}")
        if out_vu in out_v.values():
            raise NumberingError(f"node {v!r} reuses out-port {out_vu!r}")
        if in_uv in self._in.get(u, {}).values():
            raise NumberingError(f"node {u!r} reuses in-port {in_uv!r}")
        if in_vu in self._in.get(v, {}).values():
            raise NumberingError(f"node {v!r} reuses in-port {in_vu!r}")
        self.add_node(u)
        self.add_node(v)
        self._plans.clear()
        for a, b, out_ab, in_ab in ((u, v, out_uv, in_uv),
                                    (v, u, out_vu, in_vu)):
            self._out[a][b] = out_ab
            if in_ab != out_ab and self._in[a] is self._out[a]:
                self._in[a] = dict(self._out[a])
            self._in[a][b] = in_ab
        self._tails.append(u)
        self._heads.append(v)

    # -- access -----------------------------------------------------------

    @property
    def nodes(self) -> list:
        return list(self._out)

    def edges(self) -> list[tuple]:
        return list(zip(self._tails, self._heads))

    def neighbours(self, v) -> list:
        return list(self._out[v])

    def degree(self, v) -> int:
        return len(self._out[v])

    def declared_degree(self, v) -> int:
        return self.true_degree.get(v, len(self._out[v]))

    def colour(self, v) -> str | None:
        return self.colours.get(v)

    def out_port(self, u, v):
        return self._out[u][v]

    def in_port(self, u, v):
        return self._in[u][v]

    def max_degree(self) -> int:
        return max((len(a) for a in self._out.values()), default=0)

    # -- validation -------------------------------------------------------

    def is_proper(self) -> bool:
        """True iff every node's out- and in-port sets are exactly 1..deg."""
        for v, adj in self._out.items():
            want = set(range(1, len(adj) + 1))
            in_adj = self._in[v]
            if set(adj.values()) != want or (
                    in_adj is not adj and set(in_adj.values()) != want):
                return False
        return True

    def require_runnable(self, delta: int):
        """Check the numbering an executor needs: integer labels in
        ``1..delta``, distinct per node on both sides.

        Weaker than :meth:`is_proper`: the collapsed tree numberings carry
        labels above a leaf's degree and stay runnable.  A node whose in-
        and out-labels share one dict has it checked once.
        """
        for v, out in self._out.items():
            in_ = self._in[v]
            for labels in ((out.values(),) if in_ is out
                           else (out.values(), in_.values())):
                for lab in labels:
                    if not isinstance(lab, int) or not 1 <= lab <= delta:
                        raise NumberingError(
                            f"node {v!r} carries port label {lab!r}, "
                            f"need integers in 1..{delta}")
                if len(set(labels)) != len(labels):
                    labels = list(labels)
                    lab = next(lab for i, lab in enumerate(labels)
                               if lab in labels[:i])
                    raise NumberingError(
                        f"node {v!r} reuses port label {lab!r}")

    def run_plan(self, delta: int) -> "RunPlan":
        """The :class:`RunPlan` for degree bound ``delta``, built on first
        use and kept until the graph changes.

        Building it checks the degree bound (``DegreeBoundError``) and
        :meth:`require_runnable`, so a plan exists only for a runnable graph.
        """
        plan = self._plans.get(delta)
        if plan is None:
            plan = self._plans[delta] = RunPlan(self, delta)
        return plan

    # -- serialisation ----------------------------------------------------

    def to_json_dict(self, node_fmt: Callable[[Any], str] = None) -> dict:
        """JSON document of the graph.

        A node record carries ``true_degree`` only when it differs from the
        materialised degree (a truncated boundary node), and an edge record
        carries ``in_uv``/``in_vu`` only when an in-label differs from its
        out-label.  Reading fills the same defaults back in, so documents
        without these fields keep their meaning.
        """
        node_fmt = node_fmt or _default_node_fmt
        nodes = []
        for v in self._out:
            rec: dict[str, Any] = {"id": node_fmt(v)}
            if v in self.colours:
                rec["colour"] = self.colours[v]
            if self.declared_degree(v) != self.degree(v):
                rec["true_degree"] = self.true_degree[v]
            nodes.append(rec)
        edges = []
        for u, v in zip(self._tails, self._heads):
            rec = {"u": node_fmt(u), "v": node_fmt(v),
                   "port_uv": _label_text(self._out[u][v]),
                   "port_vu": _label_text(self._out[v][u])}
            for key, a, b in (("in_uv", u, v), ("in_vu", v, u)):
                if self._in[a][b] != self._out[a][b]:
                    rec[key] = _label_text(self._in[a][b])
            edges.append(rec)
        return {"nodes": nodes, "edges": edges, "proper": self.is_proper()}

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(**kw), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PortNumberedGraph":
        graph = cls()
        try:
            for rec in data["nodes"]:
                if rec["id"] in graph._out:
                    raise ValueError(f"node {rec['id']!r} is listed twice")
                graph.add_node(rec["id"], rec.get("colour"))
                if "true_degree" in rec:
                    graph.true_degree[rec["id"]] = int(rec["true_degree"])
            for rec in data["edges"]:
                in_labels = {key: _parse_label(rec[key])
                             for key in ("in_uv", "in_vu") if key in rec}
                graph.add_edge(rec["u"], rec["v"],
                               _parse_label(rec["port_uv"]),
                               _parse_label(rec["port_vu"]), **in_labels)
        except (KeyError, TypeError, ValueError, NumberingError) as exc:
            raise FormatError(f"malformed graph document: {exc}") from exc
        return graph

    @classmethod
    def from_json(cls, text: str) -> "PortNumberedGraph":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    def to_dot(self, node_fmt: Callable[[Any], str] = None,
               highlight: Iterable = ()) -> str:
        node_fmt = node_fmt or _default_node_fmt
        fills = {"B": ("black", "white"), "W": ("white", "black"),
                 "G": ("grey", "black")}
        marked = set(highlight)
        lines = ["graph {", "  node [shape=circle];"]
        for v in self._out:
            attrs = []
            if v in self.colours:
                fill, font = fills[self.colours[v]]
                attrs.append(f'style=filled fillcolor="{fill}" fontcolor="{font}"')
            if v in marked:
                attrs.append("penwidth=3")
            attr = (" [" + " ".join(attrs) + "]") if attrs else ""
            lines.append(f'  "{node_fmt(v)}"{attr};')
        for u, v in zip(self._tails, self._heads):
            label = (f"{_label_text(self._out[u][v])}/"
                     f"{_label_text(self._out[v][u])}")
            lines.append(f'  "{node_fmt(u)}" -- "{node_fmt(v)}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


class RunPlan:
    """The layout one synchronous run walks, fixed per graph and degree bound.

    Node ``i`` is the graph's ``i``-th node, ``nodes[i]`` (``index[nodes[i]]
    == i``), with degree ``degrees[i]``.  Edge ends are laid out flat,
    grouped by receiver in node order and, per receiver, in in-port order:
    slot ``k`` carries what ``nodes[senders[k]]`` writes on out-port
    ``ports[k]``, and node ``i``'s slots run from ``bounds[i]`` up to
    ``bounds[i + 1]``; a pass that needs per-node slices cuts them from the
    bounds (:meth:`slices`) and drops them.  ``senders``, ``ports`` and
    ``bounds`` are :func:`int_array` machine ints, not one Python int per
    slot.  ``partitions`` is the executor's cache of node partitions per
    reception class, dropped with the plan.
    """

    __slots__ = ("nodes", "index", "degrees", "senders", "ports", "bounds",
                 "partitions")

    def __init__(self, graph: PortNumberedGraph, delta: int):
        if graph.max_degree() > delta:
            raise DegreeBoundError(
                f"graph max degree {graph.max_degree()} exceeds bound {delta}")
        graph.require_runnable(delta)
        self.nodes = tuple(graph._out)
        self.degrees = tuple(len(graph._out[v]) for v in self.nodes)
        index = self.index = {v: i for i, v in enumerate(self.nodes)}
        senders, ports, bounds = [], [], [0]
        for v in self.nodes:
            in_ports = graph._in[v]
            for u in sorted(in_ports, key=in_ports.__getitem__):
                senders.append(index[u])
                ports.append(graph._out[u][v])
            bounds.append(len(senders))
        self.senders = int_array(senders)
        self.ports = int_array(ports)
        self.bounds = int_array(bounds)
        self.partitions: dict = {}

    def slices(self):
        """Each node's slot slice, in node order, made on the fly."""
        bounds = self.bounds
        return map(slice, bounds, islice(bounds, 1, None))


def int_array(values: list) -> array:
    """``values`` packed as machine ints: 4 bytes each, or 8 if one of them
    needs it."""
    try:
        return array("i", values)
    except OverflowError:
        return array("q", values)


def _default_node_fmt(v) -> str:
    return v if isinstance(v, str) else repr(v)


def _label_text(label) -> str:
    if isinstance(label, tuple):
        return "(" + ",".join(str(x) for x in label) + ")"
    return str(label)


def _parse_label(text):
    if isinstance(text, int):
        return text
    text = str(text)
    if text.startswith("("):
        parts = text.strip("()").split(",")
        return tuple(int(p) if p.strip().lstrip("-").isdigit() else p.strip()
                     for p in parts)
    try:
        return int(text)
    except ValueError:
        return text


# -- random instances ------------------------------------------------------

# Share of the degree-capped edge count a random graph aims for, and the
# inputs a random colouring draws from.
DENSITY = 0.5
PALETTE = ("B", "W", "G")


def random_graph(rng, n: int, delta: int) -> PortNumberedGraph:
    """Random simple graph on nodes ``0..n-1`` with max degree <= delta.

    Edges are sampled by repeated pair draws under the degree cap, so the
    result is connected-ish but not guaranteed connected.  Each node, in
    order of its first edge, shuffles its neighbours into out-ports, then
    again into in-ports.
    """
    graph = PortNumberedGraph()
    for v in range(n):
        graph.add_node(v)
    if n < 2:
        return graph
    adj: dict[int, list] = {}  # neighbours in edge order; len is degree
    target = int(DENSITY * n * min(delta, n - 1) / 2)
    attempts = 0
    edges = []
    while len(edges) < target and attempts < 20 * (target + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        near_u, near_v = adj.get(u, ()), adj.get(v, ())
        if u == v or v in near_u or max(len(near_u), len(near_v)) >= delta:
            continue
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        edges.append((u, v))
    out_port, in_port = {}, {}
    for u, near in adj.items():
        for ports in (out_port, in_port):
            order = list(near)
            rng.shuffle(order)
            ports.update({(u, v): i for i, v in enumerate(order, 1)})
    for u, v in edges:
        graph.add_edge(u, v, out_port[u, v], out_port[v, u],
                       in_uv=in_port[u, v], in_vu=in_port[v, u])
    return graph


def random_colouring(rng, graph: PortNumberedGraph) -> dict:
    return {v: rng.choice(PALETTE) for v in graph.nodes}
