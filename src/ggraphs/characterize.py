"""Decides whether a finite graph arises from the right-coset construction.

A coset graph on k generator classes is exactly k-chromatic (the cosets of
one group element form a k-clique, and the classes form a proper coloring),
so the decision procedure works at k = chromatic number: the graph is
accepted iff some proper k-coloring has uniform degree n_i and size m_i per
class with m_i * n_i = 2|E|/k, every n_i/(k-1) integral, and
|G| = 2|E|/(k(k-1)) integral and, when at most one order n_i/(k-1) exceeds
1, equal to the largest.  Edge counts always include multiplicity.

That rule lives in one function, ``_verdict_from_parameters``, the only
code that accepts k >= 2 classes.  ``characterize`` reaches it through the
coloring search or through a given partition.  The paper's two special
cases are calls into it: ``characterize_bipartite`` is the partition path on
the two sides of the graph, and ``turan_verdict`` gives it the class sizes
and degrees of T(n, r) without building the graph.

One iterative backtracker, ``_proper_coloring``, does all the coloring
search: it finds the chromatic number and, given the class size each degree
requires, the conditioned partition.  It branches in DSATUR order (Brélaz,
"New methods to color the vertices of a graph", CACM 22(4), 1979): next the
uncolored vertex whose neighbours use the most classes, ties going to the
first in (-degree, id) order.  It numbers the classes it returns by their
first member in that order, so a verdict does not depend on which valid
coloring was found.  A node is every partial assignment it enters, the
empty one and the complete ones (leaves) included; each is charged to one
budget (``node_budget``), and when that runs out the verdict is
UNDETERMINED.

Accepted verdicts carry recovered parameters and an order-constraints
presentation string.  The presentation lists only the generator orders; it
determines the group parameters, not the group itself, so
``ggraphs.witness.witness_search`` separately looks for an explicit (group,
generators) pair realizing the graph within a catalog of standard families.
This module imports neither the coset-graph builder nor the isomorphism
search: deciding a graph runs neither.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import InvalidInputError, InvalidParameterError, InvalidPartitionError
from .multigraph import SIZE_BOUND, Multigraph, as_multigraph, check_partition, turan_sizes

ACCEPT = "ACCEPT"
REFUSE = "REFUSE"
UNDETERMINED = "UNDETERMINED"

SEARCH_K_BOUND = 6
DEFAULT_NODE_BUDGET = 2_000_000


class CharacterizationVerdict(NamedTuple):
    status: str
    k: Optional[int] = None
    class_sizes: Optional[tuple[int, ...]] = None
    class_degrees: Optional[tuple[int, ...]] = None
    group_order: Optional[int] = None
    gen_orders: Optional[tuple[int, ...]] = None
    refusal_reason: Optional[str] = None

    @property
    def presentation(self) -> Optional[str]:
        """The order-constraints presentation, when the orders are known."""
        return None if self.gen_orders is None else order_presentation(self.gen_orders)


def order_presentation(orders: Sequence[int]) -> str:
    names = [f"s{i + 1}" for i in range(len(orders))]
    relations = " = ".join(f"{nm}^{o}" for nm, o in zip(names, orders))
    return f"⟨{', '.join(names)} | {relations} = e⟩"


class _BudgetExceeded(Exception):
    pass


class _Budget:
    """The search nodes left; ``_proper_coloring`` counts them down."""

    def __init__(self, nodes: int):
        self.left = nodes


# ---------------------------------------------------------------------------
# coloring machinery
# ---------------------------------------------------------------------------


def _adjacency_masks(mg: Multigraph) -> list[int]:
    return [sum(1 << w for w in row) for row in mg.adjacency()]


def _greedy_clique(masks: list[int], degrees: list[int]) -> int:
    order = sorted(range(len(masks)), key=lambda v: (-degrees[v], v))
    best = 0
    for start in order[: min(len(order), 16)]:
        clique_mask = 1 << start
        size = 1
        for v in order:
            if clique_mask & (1 << v):
                continue
            if clique_mask & ~masks[v]:
                continue
            clique_mask |= 1 << v
            size += 1
        best = max(best, size)
    return best


def _has_proper_coloring(
    mg: Multigraph, k: int, budget: _Budget, two_colorable: bool,
    masks: list[int], degrees: list[int],
) -> bool:
    """Whether ``mg``, connected with an edge, has a proper k-coloring, k >= 2.

    ``two_colorable`` is whether its traversal found two sides, and
    ``masks`` and ``degrees`` are its adjacency masks and weighted degrees.
    """
    if k >= mg.n:
        return True
    if k == 2:
        return two_colorable
    return _proper_coloring(masks, degrees, k, budget) is not None


def _proper_coloring(
    masks: list[int], degrees: list[int], k: int, budget: _Budget,
    required_size: Optional[dict[int, int]] = None,
) -> Optional[list[list[int]]]:
    """Classes of the first proper k-coloring found, or None.

    ``masks[v]`` has a bit per neighbour of v and ``degrees[v]`` is its
    weighted degree.  The search works on positions in (-degree, id) order.
    It branches on the uncolored vertex whose neighbours already use the
    most classes (DSATUR, Brélaz 1979), ties going to the lowest position,
    and tries each open class, then the next new one.  With ``required_size``
    the coloring must also use all k classes, each of one degree d and
    exactly ``required_size[d]`` vertices: a vertex then also conflicts with
    every vertex of another degree, and such conflicts count as neighbours.

    Classes are numbered by their first member in (-degree, id) order, empty
    classes last.  Every class of a conditioned coloring has one degree, so
    its class degrees, and the sizes the caps fix, then come out in one
    order whichever coloring the search finds.

    The saturation of each position is a bit-sliced count in three planes,
    capped at 7 (the search path never opens more than 6 classes).  Each
    depth saves the touched mask it changes and the planes on one stack, so
    a backtrack restores them without recounting.  Every partial assignment
    entered, the empty one and the complete ones included, is one node of
    ``budget``.
    """
    n = len(masks)
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    clashes = []
    for v in order:
        clash, rest = 0, masks[v]
        while rest:
            low = rest & -rest
            clash |= 1 << position[low.bit_length() - 1]
            rest ^= low
        clashes.append(clash)
    everyone = (1 << n) - 1
    # caps[i]: the most vertices a class may hold once position i joins it; 0: no cap
    caps = [0] * n
    if required_size is not None:
        same_degree: dict[int, int] = {}
        for i, v in enumerate(order):
            same_degree[degrees[v]] = same_degree.get(degrees[v], 0) | 1 << i
        for i, v in enumerate(order):
            clashes[i] |= everyone ^ same_degree[degrees[v]]
            caps[i] = required_size[degrees[v]]
    class_masks = [0] * k
    touched = [0] * k  # touched[c]: the positions that clash with a member of class c
    # stack[j]: (position, class, classes open before, touched of that class
    # and the count planes before) for the assignment at depth j
    stack: list[tuple[int, ...]] = [()] * n
    # bit-sliced count, capped at 7, of the open classes each position clashes with
    ones = twos = fours = 0

    left = budget.left - 1  # the root, the empty assignment
    free = everyone
    j = c = opened = i = 0  # depth, first class to try there, classes open, position
    while left >= 0:
        if j < n:
            if c == 0:  # a new depth: branch on the most saturated free position
                most = free
                if most & fours:
                    most &= fours
                if most & twos:
                    most &= twos
                if most & ones:
                    most &= ones
                i = (most & -most).bit_length() - 1
            bit, full = 1 << i, caps[i]
            top = opened + 1 if opened < k else k
            while c < top:
                if not (touched[c] & bit or full and class_masks[c].bit_count() >= full):
                    break
                c += 1
            if c < top:
                t = touched[c]
                stack[j] = (i, c, opened, t, ones, twos, fours)
                touched[c] = t | clashes[i]
                more = clashes[i] & ~(t | ones & twos & fours)
                carry = ones & more
                ones ^= more
                fours |= twos & carry
                twos ^= carry
                class_masks[c] |= bit
                free ^= bit
                if c == opened:
                    opened += 1
                j += 1
                c = 0
                left -= 1
                continue
        elif required_size is None or opened == k and all(
            m.bit_count() == caps[(m & -m).bit_length() - 1] for m in class_masks
        ):
            budget.left = left
            firsts = sorted(class_masks, key=lambda m: (m & -m) or 1 << n)
            return [sorted(order[i] for i in range(n) if m >> i & 1) for m in firsts]
        # no class fits at depth j: undo depth j - 1, try its next class
        if j == 0:
            budget.left = left
            return None
        j -= 1
        i, c, opened, t, ones, twos, fours = stack[j]
        touched[c] = t
        bit = 1 << i
        class_masks[c] ^= bit
        free |= bit
        c += 1
    budget.left = left
    raise _BudgetExceeded


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def _refuse(reason: str, k: Optional[int] = None) -> CharacterizationVerdict:
    return CharacterizationVerdict(status=REFUSE, k=k, refusal_reason=reason)


def _undetermined(reason: str) -> CharacterizationVerdict:
    return CharacterizationVerdict(status=UNDETERMINED, refusal_reason=reason)


def _trivial_verdict(mg: Multigraph, components: int) -> Optional[CharacterizationVerdict]:
    """The verdict on an empty, disconnected or one-vertex graph, else None.

    ``components`` is the component count from ``mg.traverse()``.
    """
    if mg.n == 0:
        return _refuse("empty graph")
    if components > 1:
        return _refuse("disconnected")
    if mg.n == 1:
        # A one-vertex graph is the coset graph of any cyclic group with one
        # full-order generator; the order is not recoverable from the graph.
        return CharacterizationVerdict(
            status=ACCEPT, k=1, class_sizes=(1,), class_degrees=(0,),
        )
    return None


def characterize(
    graph,
    partition: Optional[Sequence[Sequence[int]]] = None,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CharacterizationVerdict:
    """Accept or refuse a graph, recovering (k, |G|, generator orders).

    With an explicit partition the stated conditions are verified directly;
    the partition must additionally use exactly chromatic-number many classes
    (checked when the graph has at most 64 vertices).  Without a partition,
    proper colorings are searched at k = chromatic number, for chromatic
    number up to 6 on graphs of up to 64 vertices; outside those bounds the
    verdict is UNDETERMINED rather than a guess.
    """
    mg = as_multigraph(graph)
    sides, components = mg.traverse()
    verdict = _trivial_verdict(mg, components)
    if verdict is not None:
        return verdict

    budget = _Budget(node_budget)
    two_colorable = sides is not None
    try:
        if partition is not None:
            return _characterize_with_partition(mg, partition, budget, two_colorable)
        return _characterize_search(mg, budget, two_colorable)
    except _BudgetExceeded:
        return _undetermined("search budget exhausted")


def _characterize_with_partition(
    mg: Multigraph, partition: Sequence[Sequence[int]], budget: _Budget,
    two_colorable: bool,
) -> CharacterizationVerdict:
    classes = [list(cls) for cls in partition]
    check_partition(mg.n, classes)
    clash = mg.intra_class_edge(classes)
    if clash is not None:
        u, v, c = clash
        raise InvalidPartitionError(
            f"partition is not proper: edge ({u},{v}) inside class {c}"
        )

    k = len(classes)  # >= 2: with one class the connected graph has an edge inside it
    degrees = mg.weighted_degrees()
    class_degs = mg.class_degrees(classes, degrees)
    for c, d in enumerate(class_degs):
        if d is None:
            return _refuse(f"degrees not uniform within class {c}", k)
    verdict = _verdict_from_parameters(
        k, [len(cls) for cls in classes], class_degs, mg.edge_multiplicity_total()
    )
    # k = 2 needs no check: a graph with an edge is not 1-colorable
    if verdict.status == ACCEPT and k > 2 and mg.n <= SIZE_BOUND:
        masks = _adjacency_masks(mg)
        if _has_proper_coloring(mg, k - 1, budget, two_colorable, masks, degrees):
            return _refuse(
                f"graph is {k - 1}-colorable, so it is not exactly {k}-chromatic", k
            )
    return verdict


def _verdict_from_parameters(
    k: int, sizes: Sequence[int], class_degs: Sequence[int], total_mult: int
) -> CharacterizationVerdict:
    """The acceptance rule for k >= 2 classes, from their sizes and degrees.

    Accept with the recovered orders when 2|E|/k is integral, every class
    has size * degree = 2|E|/k, and ``_fractional`` finds nothing; each
    size * order then equals |G| = 2|E|/(k(k-1)).  The s_i generate G, so
    when at most one order exceeds 1, G is trivial or <s_j> and |G| must be
    the largest order.  Refuse on the first check that fails.
    """
    if (2 * total_mult) % k != 0:
        return _refuse(f"2|E|/k = {2 * total_mult}/{k} not integral", k)
    share = 2 * total_mult // k
    for c, (size, d) in enumerate(zip(sizes, class_degs)):
        if size * d != share:
            return _refuse(f"class {c}: size*degree = {size * d} != 2|E|/k = {share}", k)
    refusal = _fractional(k, class_degs, total_mult)
    if refusal is not None:
        return refusal
    orders = tuple(d // (k - 1) for d in class_degs)
    group_order = 2 * total_mult // (k * (k - 1))
    if sum(o > 1 for o in orders) <= 1 and group_order != max(orders):
        return _refuse(
            f"orders {orders} generate a group of order {max(orders)}, not {group_order}", k
        )
    return CharacterizationVerdict(
        status=ACCEPT, k=k, class_sizes=tuple(sizes), class_degrees=tuple(class_degs),
        group_order=group_order, gen_orders=orders,
    )


def _fractional(
    k: int, degrees: Sequence[int], total_mult: int
) -> Optional[CharacterizationVerdict]:
    """The refusal when a degree over k-1, or 2|E| over k(k-1), is fractional.

    The first such degree in ``degrees`` order is named; None when all are
    integral.
    """
    for d in degrees:
        if d % (k - 1) != 0:
            return _refuse(f"generator order {d}/{k - 1} not integral", k)
    if (2 * total_mult) % (k * (k - 1)) != 0:
        return _refuse(f"group order {2 * total_mult}/{k * (k - 1)} not integral", k)
    return None


def _characterize_search(
    mg: Multigraph, budget: _Budget, two_colorable: bool
) -> CharacterizationVerdict:
    if mg.n > SIZE_BOUND:
        return _undetermined(
            f"{mg.n} vertices exceeds the {SIZE_BOUND}-vertex search bound"
        )
    masks = _adjacency_masks(mg)
    degrees = mg.weighted_degrees()
    lower = max(2, _greedy_clique(masks, degrees))
    if lower > SEARCH_K_BOUND:
        return _undetermined(
            f"chromatic number is at least {lower}, above the k <= {SEARCH_K_BOUND} bound"
        )
    k = None
    for candidate in range(lower, SEARCH_K_BOUND + 1):
        if _has_proper_coloring(mg, candidate, budget, two_colorable, masks, degrees):
            k = candidate
            break
    if k is None:
        return _undetermined(
            f"chromatic number exceeds the k <= {SEARCH_K_BOUND} search bound"
        )

    total = mg.edge_multiplicity_total()
    # integrality screens that no k-chromatic partition can evade
    refusal = _fractional(k, sorted(set(degrees)), total)
    if refusal is not None:
        return refusal
    share = 2 * total // k  # k(k-1) divides 2|E|, so k does too
    required_size: dict[int, int] = {}
    # the graph is connected with n >= 2 here, so every degree is at least 1
    for d in sorted(set(degrees)):
        if share % d != 0:
            return _refuse(f"class size {share}/{d} not integral", k)
        required_size[d] = share // d

    classes = _proper_coloring(masks, degrees, k, budget, required_size)
    if classes is None:
        return _refuse(
            "no chromatic partition has uniform class degrees and balanced sizes",
            k,
        )
    sizes = [len(cls) for cls in classes]
    class_degs = [degrees[cls[0]] for cls in classes]
    return _verdict_from_parameters(k, sizes, class_degs, total)


def characterize_bipartite(graph) -> CharacterizationVerdict:
    """The bipartite case: :func:`characterize` on the two sides of the BFS.

    It accepts iff the graph is biregular, with |G| = |E| and the degrees as
    orders.  A connected non-bipartite graph raises InvalidInputError.
    """
    mg = as_multigraph(graph)
    sides, components = mg.traverse()
    verdict = _trivial_verdict(mg, components)
    if verdict is not None:
        return verdict
    if sides is None:
        raise InvalidInputError("graph is not bipartite")
    # k = 2 runs no coloring search, so the budget is never spent
    return _characterize_with_partition(mg, sides, _Budget(0), True)


def turan_verdict(n: int, r: int) -> CharacterizationVerdict:
    """The Turan case: the verdict on T(n, r) with its own classes.

    The rule runs on the sizes s of ``turan_sizes``, of degree n - s, with
    2|E| = n^2 - sum s^2, without building the graph: it accepts when r | n
    or r = 2.  Like the graph, it refuses n above VERTEX_LIMIT.
    """
    if not 2 <= r <= n:
        raise InvalidParameterError("need 2 <= r <= n")
    sizes = turan_sizes(n, r)
    total = (n * n - sum(s * s for s in sizes)) // 2
    return _verdict_from_parameters(r, sizes, [n - s for s in sizes], total)
