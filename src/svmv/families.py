"""Lower-bound tree families: node rules, lazy neighbourhoods, port
collapses, and ball materialisation.

A node is a bare tuple of construction steps; the empty tuple is the root.
In the plain family ``g`` a step is ``(b1, b2)``; in the coloured families
``hb``/``hw`` it is ``(b1, b2, colour)`` with colour in {B, W, G}.  The last
step of a node both identifies it under its parent and carries the two
generalised port labels of the parent edge: the parent's label towards the
child is ``b1`` and the child's label back is ``b2`` (colour-tagged with the
target's colour in the coloured families).

Trees are never materialised wholesale.  A node's neighbourhood is fixed by
its ``suffix_key(v, 1)`` (its depth and last one or two steps), so a
:class:`FamilyView` evaluates the rules once per such class and keeps the
result: at most O(d^3) entries per view, which makes radius-bounded searches
over large parameters cheap.  ``build_ball`` cuts an explicit graph, with
generalised or collapsed labels, when an executor needs one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from .errors import FormatError, NumberingError, ResourceLimitError
from .graphs import PortNumberedGraph

FAMILIES = ("g", "hb", "hw")
COMPLEMENT = {"B": "W", "W": "B"}
DEFAULT_MAX_NODES = 500_000

Path = tuple  # tuple of steps
ROOT: Path = ()


def _ascending(pool, excluded, count):
    """First ``count`` values of ``pool`` outside ``excluded``, ascending.

    Equivalent to picking the minimum of the remaining values repeatedly,
    since every earlier pick is itself excluded from later ones.
    """
    picked = [x for x in pool if x not in excluded]
    return picked[:count]


def _step_pairs(v: Path, d: int):
    """Port pairs ``(b1, b2)`` of the children of a non-root ``v``.

    The one odd/even-depth rule of all three families; it reads the depth
    and the ports of ``v``'s last step, never its colour.
    """
    b1, b2 = v[-1][:2]
    if len(v) % 2 == 1:
        b2p = 1 if b2 == 0 else b2
        firsts = _ascending(range(1, d + 1), {b2p}, d - 1)
        seconds = _ascending(range(1, d + 1), {b1}, d - 1)
    else:
        firsts = _ascending(range(1, d + 1), {b2}, d - 1)
        seconds = _ascending(range(0, d), {b1}, d - 1)
    return zip(firsts, seconds)


def children_g(v: Path, d: int) -> list[Path]:
    """Children of ``v`` in the plain tree with parameter ``d``, rule order."""
    depth = len(v)
    if depth >= 2 * d:
        return []
    if depth == 0:
        return [v + ((j, j - 1),) for j in range(1, d + 1)]
    return [v + (step,) for step in _step_pairs(v, d)]


def children_h(v: Path, d: int, family: str) -> list[Path]:
    """Children of ``v`` in a coloured tree, rule order (same-colour block
    before complement-colour block)."""
    base = "B" if family == "hb" else "W"
    depth = len(v)
    if depth >= 2 * d:
        return []
    if depth == 0:
        own = [v + ((j, j - 1, base),) for j in range(1, d + 1)]
        other = [v + ((j, j - 1, COMPLEMENT[base]),) for j in range(2, d + 1)]
        return own + other
    pairs = _step_pairs(v, d)
    if depth % 2 == 1:
        return [v + ((a, b, "G"),) for a, b in pairs]
    # Even depth >= 2: the grandparent's colour drives both blocks.  The
    # root's children are fully specified by the depth-0 case above.
    gcol = v[-2][2]
    same = [v + ((a, b, gcol),) for a, b in pairs]
    flip = [v + ((a + 1, a, COMPLEMENT[gcol]),) for a in range(1, d)]
    return same + flip


def children(family: str, v: Path, d: int) -> list[Path]:
    if family == "g":
        return children_g(v, d)
    if family in ("hb", "hw"):
        return children_h(v, d, family)
    raise FormatError(f"unknown family {family!r}")


def node_colour(family: str, v: Path) -> str | None:
    """Local input of a node: its step colour, grey at the root; None in g."""
    if family == "g":
        return None
    return "G" if not v else v[-1][2]


def node_degree(family: str, v: Path, d: int) -> int:
    """Degree of ``v`` in the full (untruncated) tree."""
    depth = len(v)
    if depth > 2 * d:
        raise FormatError(f"depth {depth} exceeds 2d = {2 * d}")
    if depth == 2 * d:
        return 1
    if family == "g":
        return d
    return 2 * d - 1 if depth % 2 == 0 else d


def pi(family: str, u: Path, v: Path):
    """Outgoing port label of ``u`` on the edge towards adjacent ``v``."""
    if len(u) == len(v) + 1 and u[:len(v)] == v:
        step = u[-1]
        return step[1] if family == "g" else (step[1], node_colour(family, v))
    if len(v) == len(u) + 1 and v[:len(u)] == u:
        step = v[-1]
        return step[0] if family == "g" else (step[0], node_colour(family, v))
    raise FormatError(f"nodes {format_path(u)} and {format_path(v)} "
                      f"are not adjacent")


def validate_path(family: str, v: Path, d: int):
    """Check that ``v`` is generated by the rules for this family and ``d``
    by regenerating each step from its prefix."""
    for i in range(len(v)):
        prefix = v[:i]
        if v[: i + 1] not in set(children(family, prefix, d)):
            raise FormatError(
                f"{format_path(v)} is not a node for family={family} d={d}: "
                f"step {i + 1} is not produced by any rule")


# -- port collapses ---------------------------------------------------------


@dataclass
class PortCollapse:
    """Map from generalised labels to positive integers, applied edge-wise.

    Per node, the restriction to that node's out-labels (and separately its
    in-labels) must stay injective; ``PortNumberedGraph.add_edge`` enforces
    this when ``build_ball`` or ``apply_graph`` builds a collapsed graph.
    """

    name: str
    mapping: dict

    def apply(self, label) -> int:
        try:
            return self.mapping[label]
        except KeyError:
            raise NumberingError(
                f"collapse {self.name} has no image for label {label!r}")

    def apply_graph(self, graph: PortNumberedGraph) -> PortNumberedGraph:
        out = PortNumberedGraph()
        for v in graph.nodes:
            out.add_node(v, graph.colour(v))
        out.true_degree.update(graph.true_degree)
        for u, v in graph.edges():
            out.add_edge(u, v,
                         self.apply(graph.out_port(u, v)),
                         self.apply(graph.out_port(v, u)),
                         in_uv=self.apply(graph.in_port(u, v)),
                         in_vu=self.apply(graph.in_port(v, u)))
        return out


def collapse_g(d: int) -> PortCollapse:
    """Plain-family collapse: 0 -> 1, i -> i."""
    mapping = {0: 1}
    mapping.update({i: i for i in range(1, d + 1)})
    return PortCollapse(f"g(d={d})", mapping)


def collapse_h(d: int) -> PortCollapse:
    """Coloured-family collapse onto 1..2d-1: (1,B) and (1,W) share 1,
    (i,B) -> 2i-1 and (i,W) -> 2i-2 for i >= 2, grey labels keep their
    number with (0,G) -> 1."""
    mapping = {(0, "G"): 1, (1, "B"): 1, (1, "W"): 1}
    mapping.update({(i, "G"): i for i in range(1, d + 1)})
    mapping.update({(i, "B"): 2 * i - 1 for i in range(2, d + 1)})
    mapping.update({(i, "W"): 2 * i - 2 for i in range(2, d + 1)})
    return PortCollapse(f"h(d={d})", mapping)


def family_collapse(family: str, d: int) -> PortCollapse:
    return collapse_g(d) if family == "g" else collapse_h(d)


# -- lazy adapter -----------------------------------------------------------


class FamilyView:
    """Lazy neighbourhood access to a full family tree.

    Nothing is materialised.  ``back_edges`` reads a private table keyed on
    ``suffix_key(v, 1)``: each entry holds the parent's label towards ``v``
    and the children's steps with their labels towards ``v``, filled from
    ``children`` and ``pi`` the first time its key is seen.  The rules thus
    run once per class, and a view holds at most O(d^3) entries (g: 87 at
    d=5, hb/hw: 766).  The table lives and dies with the view.

    A view reads its collapse once: the table keeps labels with the collapse
    applied, so ``family``, ``d`` and ``collapse`` are read-only.
    ``out_label`` still goes through ``pi`` and never reads the table, so
    the step labels ``verify_psw`` re-checks and the label-uniqueness
    suite's out-labels stay independent of it.  This is the graph backend
    for bisimilarity queries and walk searches at any reachable radius.
    """

    def __init__(self, family: str, d: int, collapse: PortCollapse | None = None):
        if family not in FAMILIES:
            raise FormatError(f"unknown family {family!r}")
        if d < 2:
            raise FormatError("family parameter d must be >= 2")
        self._family = family
        self._d = d
        self._collapse = collapse
        # Steps a suffix key keeps beyond its radius (see suffix_key).
        self._extra_steps = 0 if family == "g" else 1
        # suffix_key(v, 1) -> (parent's label towards v or None,
        #                      ((child step, child's label towards v), ...))
        self._local: dict[tuple, tuple] = {}

    @property
    def family(self) -> str:
        return self._family

    @property
    def d(self) -> int:
        return self._d

    @property
    def collapse(self) -> PortCollapse | None:
        return self._collapse

    def degree(self, v: Path) -> int:
        return node_degree(self._family, v, self._d)

    def local_input(self, v: Path):
        return node_colour(self._family, v)

    def neighbours(self, v: Path) -> list[Path]:
        out = [] if not v else [v[:-1]]
        out.extend(children(self._family, v, self._d))
        return out

    def _label(self, u: Path, v: Path):
        label = pi(self._family, u, v)
        return self._collapse.apply(label) if self._collapse else label

    def _local_entry(self, v: Path) -> tuple:
        up = self._label(v[:-1], v) if v else None
        return up, tuple((u[-1], self._label(u, v))
                         for u in children(self._family, v, self._d))

    def back_edges(self, v: Path) -> list[tuple[Path, Any]]:
        """Pairs (neighbour u, label of u towards v): the parent first, then
        the children in rule order."""
        key = self.suffix_key(v, 1)
        entry = self._local.get(key)
        if entry is None:
            entry = self._local[key] = self._local_entry(v)
        up, down = entry
        out = [(v[:-1], up)] if v else []
        out.extend([(v + (step,), label) for step, label in down])
        return out

    def out_label(self, u: Path, v: Path):
        return self._label(u, v)

    def suffix_key(self, v: Path, radius: int) -> tuple:
        """Canonical key of ``v`` for searches with ``radius`` moves left.

        Nodes with equal keys have isomorphic radius-``radius`` balls: the
        same degrees and local inputs within ``radius`` moves, and the same
        labels on the edges between those nodes.  The key is the depth and
        the last steps.  In ``g`` the rules read a node's depth and last
        step, so ``radius`` steps fix the ball (the topmost node shows only
        its degree).  ``hb``/``hw`` also read the colour of the parent's
        step at even depth, and a node's own colour is its input, so they
        keep ``radius + 1`` steps.
        """
        keep = radius + self._extra_steps
        return len(v), (v[-keep:] if keep else ())


# -- materialisation --------------------------------------------------------


def build_ball(family: str, d: int, center: Path, radius: int,
               max_nodes: int = DEFAULT_MAX_NODES,
               collapse: PortCollapse | None = None) -> PortNumberedGraph:
    """Induced subgraph on the nodes within ``radius`` of ``center``.

    Generalised ports, or with ``collapse`` the collapsed ones, and (for
    coloured families) the colouring are attached.  Every node's full-tree
    degree is recorded in ``true_degree`` so consumers can detect boundary
    truncation.
    """
    if radius < 0:
        raise FormatError("radius must be >= 0")
    validate_path(family, center, d)
    lazy = FamilyView(family, d, collapse)
    graph = PortNumberedGraph()
    graph.add_node(center, node_colour(family, center))
    graph.true_degree[center] = lazy.degree(center)
    seen = {center}
    frontier = deque([(center, 0)])
    while frontier:
        v, dist = frontier.popleft()
        if dist == radius:
            continue
        for u, label in lazy.back_edges(v):
            # The families are trees, so the one neighbour seen before is
            # v's BFS parent, whose edge to v already exists.
            if u in seen:
                continue
            if len(seen) >= max_nodes:
                raise ResourceLimitError(
                    f"ball exceeds {max_nodes} nodes "
                    f"(family={family}, d={d}, radius={radius})")
            seen.add(u)
            graph.add_node(u, node_colour(family, u))
            graph.true_degree[u] = lazy.degree(u)
            frontier.append((u, dist + 1))
            if len(v) < len(u):
                graph.add_edge(v, u, lazy.out_label(v, u), label)
            else:
                graph.add_edge(u, v, label, lazy.out_label(v, u))
    return graph


def build_full(family: str, d: int,
               max_nodes: int = DEFAULT_MAX_NODES) -> PortNumberedGraph:
    """The whole tree: the radius-2d ball around the root."""
    return build_ball(family, d, ROOT, 2 * d, max_nodes=max_nodes)


def build_collapsed(family: str, d: int) -> PortNumberedGraph:
    """Full tree with the family collapse applied (integer ports)."""
    return build_ball(family, d, ROOT, 2 * d,
                      collapse=family_collapse(family, d))


# -- textual syntax ---------------------------------------------------------


def format_path(v: Path) -> str:
    """Textual node syntax: "(1,0)/(2,2)"; the root is "()"."""
    if not v:
        return "()"
    return "/".join("(" + ",".join(str(x) for x in step) + ")" for step in v)


def parse_path(text: str, family: str) -> Path:
    """Inverse of :func:`format_path`; validates step shape and colours."""
    text = text.strip()
    if text in ("", "()"):
        return ROOT
    want = 2 if family == "g" else 3
    steps = []
    for chunk in text.split("/"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise FormatError(f"bad step syntax {chunk!r}")
        parts = [p.strip() for p in chunk[1:-1].split(",")]
        if len(parts) != want:
            raise FormatError(
                f"step {chunk!r} has {len(parts)} fields, family "
                f"{family!r} needs {want}")
        try:
            nums = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise FormatError(f"non-integer port in step {chunk!r}") from exc
        if want == 2:
            steps.append(nums)
        else:
            if parts[2] not in ("B", "W", "G"):
                raise FormatError(f"bad colour {parts[2]!r} in step {chunk!r}")
            steps.append(nums + (parts[2],))
    return tuple(steps)


def h_counterpart(v: Path) -> Path | None:
    """The same-steps node in the opposite coloured family, where defined.

    Defined for the root and for every node whose first step has b1 >= 2;
    the branch through (1,0,.) has no counterpart.
    """
    if not v:
        return v
    if v[0][0] >= 2:
        return v
    return None
