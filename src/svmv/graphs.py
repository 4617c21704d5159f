"""Port-numbered graphs: construction, validation, serialisation.

``out_port(u, v)`` is the label node ``u`` writes on its end of the edge
towards ``v``; ``in_port(u, v)`` is the label under which that end is
addressed when ``u`` receives.  Set- and multiset-reception machines never
observe in-ports; they are materialised for export and for ordering trace
slots.  In the tree families both labels of an edge end coincide; random
numberings sample them independently.  A node's adjacency is one flat
tuple of ``(neighbour, out-label, in-label)`` triples in edge order, kept
in a list by node position; one dict maps each node to its position, in the
order ``add_node`` first saw them, which ``nodes`` and the exports follow; a
:class:`RunPlan` holds that dict, ``senders``, ``ports`` and ``bounds``, and
reads each node's degree as the difference of its two bounds.
"""

from __future__ import annotations

import json
from array import array
from itertools import islice
from typing import Any, Callable, Iterable

from .errors import DegreeBoundError, FormatError, NumberingError


class PortNumberedGraph:
    """Finite simple undirected graph with per-edge directional port labels.

    ``_adj[_index[v]]`` is ``v``'s adjacency tuple.  Edge ``k`` joins
    ``_tails[k]`` and ``_heads[k]``, two parallel lists in insertion order,
    so an edge costs two list slots and no tuple; :meth:`edges` pairs them
    on read.  ``true_degree`` records the degree a node has in the full
    structure a ball was cut from, for the nodes the ball cuts edges from;
    consumers that need exact answers read :meth:`declared_degree` to
    detect truncation.
    """

    def __init__(self):
        self._index: dict[Any, int] = {}
        self._adj: list[tuple] = []
        self._tails: list[Any] = []
        self._heads: list[Any] = []
        self.colours: dict[Any, str] = {}
        self.true_degree: dict[Any, int] = {}
        self._plans: dict[int, RunPlan] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, v, colour: str | None = None):
        if v not in self._index:
            self._plans.clear()
            self._index[v] = len(self._adj)
            self._adj.append(())
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
        index, adj = self._index, self._adj
        at_u = adj[index[u]] if u in index else ()
        at_v = adj[index[v]] if v in index else ()
        if v in at_u[0::3]:
            raise NumberingError(f"duplicate edge {u!r} -- {v!r}")
        in_uv = out_uv if in_uv is None else in_uv
        in_vu = out_vu if in_vu is None else in_vu
        for w, at_w, label, k in ((u, at_u, out_uv, 1), (v, at_v, out_vu, 1),
                                  (u, at_u, in_uv, 2), (v, at_v, in_vu, 2)):
            _check_free(w, at_w, label, k)
        self.add_node(u)
        self.add_node(v)
        self._plans.clear()
        adj[index[u]] = at_u + (v, out_uv, in_uv)
        adj[index[v]] = at_v + (u, out_vu, in_vu)
        self._tails.append(u)
        self._heads.append(v)

    def add_branches(self, v, ends):
        """Join ``v`` to new nodes in one step, as ``add_node`` and
        ``add_edge`` would: ``ends`` lists ``(u, colour, out_vu, out_uv,
        v_first)``, in-labels equal out-labels, and ``v_first`` lists the
        edge as ``(v, u)``, not ``(u, v)``.  Each ``u`` must be new, so only
        ``v``'s labels can clash; they are checked before anything is added."""
        index, adj = self._index, self._adj
        grown = adj[index[v]]
        for u, _, out_vu, _, _ in ends:
            _check_free(v, grown, out_vu, 1)
            _check_free(v, grown, out_vu, 2)
            grown += (u, out_vu, out_vu)
        self._plans.clear()
        adj[index[v]] = grown
        for u, colour, _, out_uv, v_first in ends:
            index[u] = len(adj)
            adj.append((v, out_uv, out_uv))
            if colour is not None:
                self.colours[u] = colour
            self._tails.append(v if v_first else u)
            self._heads.append(u if v_first else v)

    # -- access -----------------------------------------------------------

    def _ends(self, v) -> tuple:
        return self._adj[self._index[v]]

    @property
    def nodes(self) -> list:
        return list(self._index)

    def edges(self) -> list[tuple]:
        return list(zip(self._tails, self._heads))

    def neighbours(self, v) -> list:
        return list(self._ends(v)[0::3])

    def degree(self, v) -> int:
        return len(self._ends(v)) // 3

    def declared_degree(self, v) -> int:
        return self.true_degree.get(v, self.degree(v))

    def out_port(self, u, v):
        at_u = self._ends(u)
        return at_u[_find(at_u, v) + 1]

    def in_port(self, u, v):
        at_u = self._ends(u)
        return at_u[_find(at_u, v) + 2]

    def max_degree(self) -> int:
        return max(map(len, self._adj), default=0) // 3

    # -- validation -------------------------------------------------------

    def improper_nodes(self) -> list:
        """Nodes whose out- or in-ports are not exactly 1..deg, in order."""
        bad = []
        for v, ends in zip(self._index, self._adj):
            outs, ins = ends[1::3], ends[2::3]
            want = set(range(1, len(outs) + 1))
            if set(outs) != want or (ins != outs and set(ins) != want):
                bad.append(v)
        return bad

    def is_proper(self) -> bool:
        """True iff no node is improper (:meth:`improper_nodes`)."""
        return not self.improper_nodes()

    def require_runnable(self, delta: int):
        """Check the numbering an executor needs: integer labels in
        ``1..delta``, distinct per node on both sides.

        Weaker than :meth:`is_proper`: the collapsed tree numberings carry
        labels above a leaf's degree and stay runnable.  A node whose in-
        labels equal its out-labels, every node of a tree, has them checked
        once.
        """
        for v, ends in zip(self._index, self._adj):
            outs, ins = ends[1::3], ends[2::3]
            for labels in ((outs,) if ins == outs else (outs, ins)):
                for lab in labels:
                    if not isinstance(lab, int) or not 1 <= lab <= delta:
                        raise NumberingError(
                            f"node {v!r} carries port label {lab!r}, "
                            f"need integers in 1..{delta}")
                if len(set(labels)) != len(labels):
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
        for v in self._index:
            rec: dict[str, Any] = {"id": node_fmt(v)}
            if v in self.colours:
                rec["colour"] = self.colours[v]
            if self.declared_degree(v) != self.degree(v):
                rec["true_degree"] = self.true_degree[v]
            nodes.append(rec)
        edges = []
        for u, v in zip(self._tails, self._heads):
            at_u, at_v = self._ends(u), self._ends(v)
            i, j = _find(at_u, v), _find(at_v, u)
            rec = {"u": node_fmt(u), "v": node_fmt(v),
                   "port_uv": _label_text(at_u[i + 1]),
                   "port_vu": _label_text(at_v[j + 1])}
            for key, ends, k in (("in_uv", at_u, i), ("in_vu", at_v, j)):
                if ends[k + 2] != ends[k + 1]:
                    rec[key] = _label_text(ends[k + 2])
            edges.append(rec)
        return {"nodes": nodes, "edges": edges, "proper": self.is_proper()}

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(**kw), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PortNumberedGraph":
        graph = cls()
        try:
            for rec in data["nodes"]:
                if rec["id"] in graph._index:
                    raise ValueError(f"node {rec['id']!r} is listed twice")
                graph.add_node(rec["id"], rec.get("colour"))
                if "true_degree" in rec:
                    graph.true_degree[rec["id"]] = int(rec["true_degree"])
            for rec in data["edges"]:
                for end in (rec["u"], rec["v"]):
                    if end not in graph._index:
                        raise ValueError(
                            f"edge {rec['u']!r} -- {rec['v']!r} names node "
                            f"{end!r}, which the nodes do not list")
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
        for v in self._index:
            attrs = []
            if v in self.colours:
                fill, font = fills[self.colours[v]]
                attrs.append(f'style=filled fillcolor="{fill}" fontcolor="{font}"')
            if v in marked:
                attrs.append("penwidth=3")
            attr = (" [" + " ".join(attrs) + "]") if attrs else ""
            lines.append(f'  "{node_fmt(v)}"{attr};')
        for u, v in zip(self._tails, self._heads):
            label = (f"{_label_text(self.out_port(u, v))}/"
                     f"{_label_text(self.out_port(v, u))}")
            lines.append(f'  "{node_fmt(u)}" -- "{node_fmt(v)}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _find(ends: tuple, v) -> int:
    """Where neighbour ``v``'s triple starts in the adjacency ``ends``."""
    try:
        return 3 * ends[0::3].index(v)
    except ValueError:
        raise KeyError(v) from None


def _check_free(v, ends: tuple, label, k: int):
    """Refuse ``v``'s new out-label (``k`` 1) or in-label (2) if taken."""
    if label in ends[k::3]:
        side = "out" if k == 1 else "in"
        raise NumberingError(f"node {v!r} reuses {side}-port {label!r}")


class RunPlan:
    """The layout one synchronous run walks, fixed per graph and degree bound.

    ``index`` is the graph's own dict: node ``i`` is its ``i``-th key, and a
    node the graph gains later maps past the plan's nodes.  Edge ends are
    laid out flat, grouped by receiver in node order and, per receiver, in
    in-port order: slot ``k`` carries what node ``senders[k]`` writes on
    out-port ``ports[k]``, and node ``i``'s slots, as many as its degree, run
    from ``bounds[i]`` up to ``bounds[i + 1]``; a pass that needs per-node
    slices cuts them from the bounds (:meth:`slices`) and drops them.
    ``senders``, ``ports`` and ``bounds`` are :func:`int_array` machine
    ints, not one Python int per slot.  ``partitions`` is the executor's
    cache of node partitions per reception class, dropped with the plan.
    """

    __slots__ = ("index", "senders", "ports", "bounds", "partitions")

    def __init__(self, graph: PortNumberedGraph, delta: int):
        if graph.max_degree() > delta:
            raise DegreeBoundError(
                f"graph max degree {graph.max_degree()} exceeds bound {delta}")
        graph.require_runnable(delta)
        index, adj = graph._index, graph._adj
        self.index = index
        senders, ports, bounds = [], [], [0]
        for v, ends in zip(index, adj):
            # In-labels are distinct per node, so no two neighbours compare.
            for _, u in sorted(zip(ends[2::3], ends[0::3])):
                i = index[u]
                senders.append(i)
                at_u = adj[i]
                ports.append(at_u[_find(at_u, v) + 1])
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
    """``values`` packed as the narrowest machine ints, ``B``, ``H``, ``i``
    or ``q``, that hold their maximum; as ``q`` if one is negative."""
    top = max(values, default=0)
    code = "BHiq"[(top >= 1 << 8) + (top >= 1 << 16) + (top >= 1 << 31)]
    try:
        return array(code, values)
    except OverflowError:
        return array("q", values)


def _default_node_fmt(v) -> str:
    return v if isinstance(v, str) else repr(v)


def _label_text(label) -> str:
    if isinstance(label, tuple):
        return "(" + ",".join(str(x) for x in label) + ")"
    return str(label)


def _parse_label(text):
    if isinstance(text, bool):
        # A bool is an int to Python, but to_json would write it as "True".
        raise ValueError(f"port label {text!r} is a boolean, not a port")
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
