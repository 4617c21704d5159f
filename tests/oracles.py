"""Independent reference implementations used as test oracles.

These recompute the same quantities as the package with deliberately
different machinery: the child rules as literal iterated minimum picks, a
node's labelled neighbours straight from the rules with no per-view table,
the critical separating length by raw path enumeration without deduplication,
bisimilarity by direct unmemoised recursion over nodes that reads the rules
or the graph rather than the checker's backend, and synchronous execution by a
straight per-round loop without slot tables or transition memo.
"""

from collections import Counter

from svmv.families import (COMPLEMENT, FamilyView, children, node_colour,
                           node_degree, pi)
from svmv.machines import EPSILON, MV


def mex(pool, forbidden):
    for x in sorted(pool):
        if x not in forbidden:
            return x
    raise AssertionError("pool exhausted")


def naive_children_g(v, d):
    i = len(v)
    if i >= 2 * d:
        return []
    if i == 0:
        return [v + ((j, j - 1),) for j in range(1, d + 1)]
    b1, b2 = v[-1]
    firsts, seconds = [], []
    if i % 2 == 1:
        b2p = 1 if b2 == 0 else b2
        for _ in range(d - 1):
            firsts.append(mex(range(1, d + 1), {b2p} | set(firsts)))
            seconds.append(mex(range(1, d + 1), {b1} | set(seconds)))
    else:
        for _ in range(d - 1):
            firsts.append(mex(range(1, d + 1), {b2} | set(firsts)))
            seconds.append(mex(range(0, d), {b1} | set(seconds)))
    return [v + ((a, b),) for a, b in zip(firsts, seconds)]


def naive_children_h(v, d, family):
    base = "B" if family == "hb" else "W"
    i = len(v)
    if i >= 2 * d:
        return []
    if i == 0:
        return ([v + ((j, j - 1, base),) for j in range(1, d + 1)]
                + [v + ((j, j - 1, COMPLEMENT[base]),) for j in range(2, d + 1)])
    if i % 2 == 1:
        b1, b2, _ = v[-1]
        b2p = 1 if b2 == 0 else b2
        firsts, seconds = [], []
        for _ in range(d - 1):
            firsts.append(mex(range(1, d + 1), {b2p} | set(firsts)))
            seconds.append(mex(range(1, d + 1), {b1} | set(seconds)))
        return [v + ((a, b, "G"),) for a, b in zip(firsts, seconds)]
    gcol = v[-2][2]
    b1, b2, _ = v[-1]
    firsts, seconds = [], []
    for _ in range(d - 1):
        firsts.append(mex(range(1, d + 1), {b2} | set(firsts)))
        seconds.append(mex(range(0, d), {b1} | set(seconds)))
    same = [v + ((a, b, gcol),) for a, b in zip(firsts, seconds)]
    f2, s2 = [], []
    for _ in range(d - 1):
        f2.append(mex(range(2, d + 1), set(f2)))
        s2.append(mex(range(1, d), set(s2)))
    return same + [v + ((a, b, COMPLEMENT[gcol]),) for a, b in zip(f2, s2)]


def rule_back_edges(view, v):
    """``view.back_edges(v)`` from ``children``, ``pi`` and the view's
    collapse alone: the parent first, then the children in rule order."""
    neighbours = ([v[:-1]] if v else []) + children(view.family, v, view.d)
    labels = [pi(view.family, u, v) for u in neighbours]
    if view.collapse is not None:
        labels = [view.collapse.apply(label) for label in labels]
    return list(zip(neighbours, labels))


def naive_back_label_map(v, d):
    """label(u -> v) -> u over all neighbours u of v in the plain tree."""
    out = {}
    if v:
        out[v[-1][0]] = v[:-1]
    for child in naive_children_g(v, d):
        out[child[-1][1]] = child
    return out


def brute_critical_length(d, max_len):
    """Minimal separating length by raw pair-path enumeration (no visited
    set; walks may revisit).  Either end may own the unmatched label."""
    frontier = [(((1, 0),), ((2, 1),))]
    for k in range(max_len + 1):
        nxt = []
        for x, y in frontier:
            mx = naive_back_label_map(x, d)
            my = naive_back_label_map(y, d)
            if set(mx) != set(my):
                return k
            for a in mx:
                nxt.append((mx[a], my[a]))
        frontier = nxt
    return None


def _node(view, v):
    """``((degree, local input), labelled neighbours)`` of ``v``: from the
    rules for a ``FamilyView``, from the graph for a ``MaterializedView``,
    never through the backend's own calls."""
    if isinstance(view, FamilyView):
        local = node_degree(view.family, v, view.d), \
            node_colour(view.family, v)
        return local, rule_back_edges(view, v)
    graph = view.graph
    return ((graph.declared_degree(v), graph.colours.get(v)),
            [(u, graph.out_port(u, v)) for u in graph.neighbours(v)])


def naive_bisimilar(va, x, vb, y, r):
    """Direct recursion over the definition; exponential, keep r small."""
    local_a, ea = _node(va, x)
    local_b, eb = _node(vb, y)
    if local_a != local_b:
        return False
    if r == 0:
        return True
    for w, a in ea:
        if not any(b == a and naive_bisimilar(va, w, vb, w2, r - 1)
                   for w2, b in eb):
            return False
    for w2, b in eb:
        if not any(a == b and naive_bisimilar(va, w, vb, w2, r - 1)
                   for w, a in ea):
            return False
    return True


def reference_execute(machine, graph, colouring, max_rounds):
    """Run ``machine`` round by round: every node emits on every slot, the
    receiver pads, reduces and calls ``transition``.  Returns ``(states,
    messages, stopped_round)`` laid out as in ``ExecutionTrace``."""
    reduce = Counter if machine.reception_class == MV else frozenset
    inputs = colouring if colouring is not None else graph.colours
    state = {v: machine.init(graph.degree(v), inputs.get(v))
             for v in graph.nodes}
    states, messages = [state], []
    if all(machine.stopping(s) for s in state.values()):
        return states, messages, 0
    for r in range(1, max_rounds + 1):
        delivered = {}
        for v in graph.nodes:
            senders = sorted(graph.neighbours(v),
                             key=lambda u: graph.in_port(v, u))
            msgs = tuple(machine.emit(state[u], graph.out_port(u, v))
                         for u in senders)
            delivered[v] = msgs + (EPSILON,) * (machine.delta - len(msgs))
        state = {v: s if machine.stopping(s)
                 else machine.transition(s, reduce(delivered[v]))
                 for v, s in state.items()}
        states.append(state)
        messages.append(delivered)
        if all(machine.stopping(s) for s in state.values()):
            return states, messages, r
    return states, messages, None
