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
its ``suffix_key(v, 1)`` (its depth, its last step and, in ``hb``/``hw``,
the colour of the step before), so a :class:`FamilyView` evaluates the
rules once per such class and keeps the result: at most O(d^3) entries per
view.  Radius-bounded searches step from suffix key to suffix key on that
table and never build a path, which makes them cheap over large
parameters.  ``build_ball`` cuts an explicit graph, with generalised or
collapsed labels, when an executor needs one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import (FormatError, InternalInconsistencyError, NumberingError,
                     ResourceLimitError)
from .graphs import PALETTE, PortNumberedGraph
from .views import ViewTree, view

FAMILIES = ("g", "hb", "hw")
COMPLEMENT = {"B": "W", "W": "B"}
DEFAULT_MAX_NODES = 500_000
# Where ball_size stops counting: far above any ball a machine can build.
SIZE_CAP = 2 ** 62

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


def ball_size(family: str, d: int, depth: int, radius: int) -> int:
    """Node count of the ball of ``radius`` around any node at ``depth``;
    past :data:`SIZE_CAP` it stops counting and returns some larger number.

    A node at depth ``s`` has ``c(s)`` children: its degree at the root,
    one fewer below, none at depth 2d.  The nodes at most ``b`` steps down
    from it number ``down(s, b) = 1 + c(s) * down(s + 1, b - 1)``.  The ball
    is the centre's ``down(depth, radius)`` plus, for the ancestor ``j``
    steps up (j <= min(depth, radius)), that ancestor and its other
    ``c(depth - j) - 1`` children's ``down(depth - j + 1, radius - j - 1)``.
    """
    def kids(s):
        return _depth_degree(family, s, d) - (s > 0)

    def down(s, b):
        if b < 0:
            return 0
        total = level = 1
        for k in range(s, min(s + b, 2 * d)):
            level *= kids(k)
            total += level
            if total > SIZE_CAP:
                break
        return total

    return down(depth, radius) + sum(
        1 + (kids(depth - j) - 1) * down(depth - j + 1, radius - j - 1)
        for j in range(1, min(depth, radius) + 1))


def node_colour(family: str, v: Path) -> str | None:
    """Local input of a node: its step colour, grey at the root; None in g."""
    if family == "g":
        return None
    return "G" if not v else v[-1][2]


def node_degree(family: str, v: Path, d: int) -> int:
    """Degree of ``v`` in the full (untruncated) tree."""
    return _depth_degree(family, len(v), d)


def _depth_degree(family: str, depth: int, d: int) -> int:
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


def require_unique_labels(where: str, labels: list):
    """Raise unless each label names one neighbour, as walk pairs need."""
    if len(set(labels)) != len(labels):
        raise InternalInconsistencyError(
            f"neighbours of {where} share back-labels {labels}; "
            f"per-label uniqueness is violated")


# -- port collapses ---------------------------------------------------------


@dataclass
class PortCollapse:
    """Map from generalised labels to positive integers, applied edge-wise.

    Per node, the restriction to that node's out-labels (and separately its
    in-labels) must stay injective; ``build_ball`` enforces this as it
    writes the labels, and ``PortNumberedGraph.add_edge`` when
    ``apply_graph`` builds a collapsed graph.
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
            out.add_node(v, graph.colours.get(v))
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

    Nothing is materialised.  A node's labelled neighbours come from one
    private table keyed on ``suffix_key(v, 1)`` and filled from that key
    alone: the first time a key is read, ``children`` and ``out_label`` run
    on a stand-in path that keeps only the key's steps.  An entry holds the
    parent's label towards ``v``, the children's steps with their labels
    towards ``v`` and their radius-1 keys, and the neighbours' radius-0
    keys with those labels.  The rules thus run once per class, and a view
    holds at most O(d^3) entries (g: 87 at d=5, hb/hw: 172).  The table
    lives and dies with the view, as do the memos of ``view_of``.

    ``back_edges(v)`` lists a node's neighbours as paths.  Bisimilarity
    reads three calls: ``suffix_key``, ``key_edges(key, radius)``, the
    neighbours as their keys for ``radius - 1``, and ``key_local(key)``,
    the degree and input (``node_degree`` and ``node_colour`` give a
    path's).  With ``view_of``, which builds set-reception views, the
    bisimilarity and psw searches never build a path.

    A view reads its collapse once: the table keeps labels with the collapse
    applied, so ``family``, ``d`` and ``collapse`` are read-only.
    ``out_label`` goes through ``pi`` and never reads the table, so the
    step labels ``verify_psw`` re-checks and the label-uniqueness suite's
    out-labels stay independent of it.  This is the graph backend for
    bisimilarity queries and walk searches at any reachable radius.
    """

    def __init__(self, family: str, d: int, collapse: PortCollapse | None = None):
        if family not in FAMILIES:
            raise FormatError(f"unknown family {family!r}")
        if d < 2:
            raise FormatError("family parameter d must be >= 2")
        self._family = family
        self._d = d
        self._collapse = collapse
        # suffix_key(v, 1) -> (parent's label towards v or None,
        #                      (((child step,), its label towards v,
        #                        the child's suffix_key for 1), ...),
        #                      key_edges(that key, 1), which it fixes)
        self._table: dict[tuple, tuple] = {}
        # (key, parent's view, round) -> view_of
        self._views: dict[tuple, ViewTree] = {}
        self._degrees = [_depth_degree(family, depth, d)
                         for depth in range(2 * d + 1)]

    @property
    def family(self) -> str:
        return self._family

    @property
    def d(self) -> int:
        return self._d

    @property
    def collapse(self) -> PortCollapse | None:
        return self._collapse

    def _entry(self, depth: int, steps: tuple) -> tuple:
        """The table entry of the key ``(depth, steps)`` for radius 1,
        filled from the rules on first use."""
        entry = self._table.get((depth, steps))
        if entry is None:
            # The rules read only the steps a key keeps, so None may stand
            # in for the ones it dropped.
            v = (None,) * (depth - len(steps)) + steps
            up = self.out_label(v[:-1], v) if depth else None
            down = tuple((u[-1:], self.out_label(u, v),
                          (depth + 1, self._trim(steps + u[-1:], 1)))
                         for u in children(self._family, v, self._d))
            near = [((depth - 1, self._trim(steps[:-1], 0)), up)] \
                if depth else []
            near.extend([((depth + 1, self._trim(step, 0)), label)
                         for step, label, _ in down])
            entry = self._table[depth, steps] = up, down, near
        return entry

    def back_edges(self, v: Path) -> list[tuple[Path, Any]]:
        """Pairs (neighbour u, label of u towards v): the parent first, then
        the children in rule order."""
        up, down, _ = self._entry(len(v), self._trim(v, 1))
        out = [(v[:-1], up)] if v else []
        out.extend([(v + step, label) for step, label, _ in down])
        return out

    def key_edges(self, key: tuple, radius: int) -> list[tuple[tuple, Any]]:
        """``[(suffix_key(u, radius - 1), label) for u, label in
        back_edges(v)]`` for every node ``v`` whose suffix key for
        ``radius`` or more is ``key``; needs ``radius >= 1``.

        The parent's key drops the last step and a child's appends its
        step; ``_trim`` cuts both, and the table key, as ``suffix_key``
        cuts a path.  The radius-1 list is the table entry's own, so
        callers must not change it.
        """
        depth, steps = key
        up, down, near = self._entry(depth, self._trim(steps, 1))
        if radius == 1:
            return near
        out = [((depth - 1, self._trim(steps[:-1], radius - 1)), up)] \
            if depth else []
        # A child's key for radius - 1 is the parent's for radius - 2 and
        # the child's step.
        head = self._trim(steps, radius - 2)
        out.extend([((depth + 1, head + step), label)
                    for step, label, _ in down])
        return out

    def key_local(self, key: tuple) -> tuple:
        """Degree and local input of the nodes whose suffix key is ``key``."""
        depth, steps = key
        return self._degrees[depth], node_colour(self._family, steps)

    def view_of(self, key: tuple, parent, r: int) -> ViewTree:
        """The round-``r`` set-reception view of the nodes of type ``key``,
        their ``suffix_key`` for 1, whose parent's round-``r - 1`` view is
        ``parent``: None at the root, and ignored at round 0.  A child's
        parent's view is this node's at ``r - 2``, whose own parent's is
        ``parent`` restricted twice.  Memoised beside the rule table."""
        if r == 0:
            parent = None
        got = self._views.get((key, parent, r))
        if got is None:
            depth, steps = key
            up, down, _ = self._entry(depth, steps)
            heard = [(up, parent)] if depth and r else []
            if r:
                grand = parent.restrict().restrict() \
                    if depth and r >= 3 else None
                own = self.view_of(key, grand, r - 2) if r >= 2 else None
                heard.extend([(label, self.view_of(child, own, r - 1))
                              for _, label, child in down])
            got = self._views[key, parent, r] = view(*self.key_local(key),
                                                     r, heard)
        return got

    def require_unique_back_labels(self):
        """:func:`require_unique_labels` on every table entry filled so far,
        since a view keeps a repeated (label, child) pair only once."""
        for depth, steps in self._table:
            up, down, _ = self._entry(depth, steps)
            require_unique_labels(
                f"the depth-{depth} nodes ending {format_path(steps)}",
                [up] * (depth > 0) + [label for _, label, _ in down])

    def out_label(self, u: Path, v: Path):
        label = pi(self._family, u, v)
        return self._collapse.apply(label) if self._collapse else label

    def suffix_key(self, v: Path, radius: int) -> tuple:
        """Canonical key of ``v`` for searches with ``radius`` moves left.

        Nodes with equal keys have isomorphic radius-``radius`` balls: the
        same degrees and local inputs within ``radius`` moves, and the same
        labels on the edges between those nodes.  The key is the depth and
        the last steps.  In ``g`` the rules read a node's depth and last
        step, so ``radius`` steps fix the ball (the topmost node shows only
        its degree).

        ``hb``/``hw`` keep the last ``radius`` steps plus the colour of the
        step before them, written ``(None, None, colour)``.  That step
        makes the ancestor at distance ``radius``, which the ball shows
        only through its degree (fixed by the depth) and its input, that
        colour.  Its ports label the edge to its parent, outside the ball.
        The one rule that reads further back, the even-depth rule at the
        ancestor's child (distance ``radius - 1``), reads the grandparent
        colour: the same colour.  The labels towards the ancestor's child
        carry the child's colour or the ancestor's, both kept.
        """
        return len(v), self._trim(v, radius)

    def _trim(self, steps: tuple, radius: int) -> tuple:
        """The steps a suffix key for ``radius`` keeps of ``steps``, the
        last steps of a node's path or of a key for a larger radius."""
        n = len(steps)
        if n <= radius:
            return steps
        if self._family == "g":
            return steps[n - radius:]
        return ((None, None, steps[n - radius - 1][2]),) + steps[n - radius:]


# -- materialisation --------------------------------------------------------


def build_ball(family: str, d: int, center: Path, radius: int,
               max_nodes: int = DEFAULT_MAX_NODES,
               collapse: PortCollapse | None = None) -> PortNumberedGraph:
    """Induced subgraph on the nodes within ``radius`` of ``center``.

    Generalised ports, or with ``collapse`` the collapsed ones, and (for
    coloured families) the colouring are attached.  Nodes inside the radius
    keep every edge; a node on the boundary whose full-tree degree exceeds
    what the ball keeps of it has that degree recorded in ``true_degree``,
    so ``declared_degree`` reads the full-tree degree of every node and a
    whole tree records none.  A ball that would pass ``max_nodes`` is
    refused from its exact size, :func:`ball_size`, before a node is built.

    One BFS pass adds each node's unseen neighbours through
    ``PortNumberedGraph.add_branches``, each edge listed from its shallower
    end, so a collapse that reuses an out-port raises ``NumberingError``.
    """
    if radius < 0:
        raise FormatError("radius must be >= 0")
    validate_path(family, center, d)
    if ball_size(family, d, len(center), radius) > max_nodes:
        raise ResourceLimitError(
            f"ball exceeds {max_nodes} nodes "
            f"(family={family}, d={d}, radius={radius})")
    lazy = FamilyView(family, d, collapse)
    graph = PortNumberedGraph()
    graph.add_node(center, node_colour(family, center))
    level = [(center, None)]
    for _ in range(radius):
        below = []
        for v, parent in level:
            # The families are trees, so the one neighbour seen before is
            # v's BFS parent, whose edge to v already exists.
            ends = [(u, node_colour(family, u), lazy.out_label(v, u), label,
                     len(v) < len(u))
                    for u, label in lazy.back_edges(v) if u != parent]
            graph.add_branches(v, ends)
            below.extend([(end[0], v) for end in ends])
        level = below
    # Every edge of a node at the radius but the one to its BFS parent is
    # cut off.
    for v, _ in level:
        degree = node_degree(family, v, d)
        if degree != graph.degree(v):
            graph.true_degree[v] = degree
    return graph


def build_full(family: str, d: int) -> PortNumberedGraph:
    """The whole tree: the radius-2d ball around the root."""
    return build_ball(family, d, ROOT, 2 * d)


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
            if parts[2] not in PALETTE:
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
