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
determines the group parameters, not the group itself, so ``witness_search``
separately looks for an explicit (group, generators) pair realizing the
graph within a catalog of standard families.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from itertools import product as _cartesian
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    InvalidPartitionError,
    NotAGeneratingSetError,
    TooLargeError,
)
from .ggraph import build_ggraph
from .iso import SIZE_BOUND, canonical_form
from .multigraph import Multigraph, as_multigraph, check_partition, turan_sizes

# groups loads numpy, so it is imported inside the functions that use a group
if TYPE_CHECKING:
    from .groups import GenSequence, GroupTable

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


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


def witness_search(
    verdict: CharacterizationVerdict, target, *, max_sequences: int = 10**6
) -> Optional[tuple[GroupTable, GenSequence]]:
    """Best-effort explicit (group, generators) pair realizing the target.

    Scans a catalog of standard families of the accepted group order, and in
    each group every tuple of conjugacy-class representatives whose orders
    match the accepted orders, in order.  Each tuple spends one unit of
    ``max_sequences``; when they run out the result is None.  A coset graph
    depends on each generator only through its cyclic subgroup, so a tuple
    whose multiset of subgroups was already tried in the group is skipped,
    and so is one whose graph's edge-multiplicity or distinct-degree
    histogram, read off the subgroups' intersections, differs from the
    target's.  Only the rest are closed, built and canonicalized.  None means
    the catalog is exhausted, not that the verdict is wrong; no catalog group
    is larger than CLOSURE_LIMIT.  A verdict whose orders are not positive
    integers gets None too.
    """
    return next(_witnesses(verdict, target, max_sequences), None)


def _witnesses(
    verdict: CharacterizationVerdict, target, max_sequences: int
) -> Iterator[tuple[GroupTable, GenSequence]]:
    """The first witness in each catalog group, in catalog order, while the
    ``max_sequences`` tuples last; ``witness_search`` takes the first."""
    from .groups import CLOSURE_LIMIT, make_gen_sequence

    n_order, orders = verdict.group_order, verdict.gen_orders or ()
    valid = orders and all(type(o) is int and o >= 1 for o in (n_order, *orders))
    if verdict.status != ACCEPT or not valid:
        return
    tgt = as_multigraph(target)
    if tgt.n > SIZE_BOUND:
        raise TooLargeError(f"target exceeds {SIZE_BOUND} vertices")
    wanted = tuple(sorted(orders))
    k = len(wanted)
    if n_order > CLOSURE_LIMIT or any(n_order % o for o in wanted):
        return
    if sum(n_order // o for o in wanted) != tgt.n:
        return
    if k * (k - 1) // 2 * n_order != tgt.edge_multiplicity_total():
        return

    # every candidate has the target's vertex count and edge total, so the
    # canonical forms alone decide isomorphism
    target_form = canonical_form(tgt).edges
    target_shape = (Counter(tgt.edges.values()), Counter(map(len, tgt.adjacency())))
    budget = max_sequences
    for entry in _catalog_groups(n_order):
        pools = [entry.pool(o) for o in wanted]
        if not all(pools):
            continue
        tried: set[tuple[int, ...]] = set()
        for combo in _cartesian(*pools):
            budget -= 1
            if budget < 0:
                return
            key = tuple(sorted(mask for _, mask in combo))
            if key in tried:
                continue
            tried.add(key)
            if _shape(n_order, key) != target_shape:
                continue
            try:
                seq = make_gen_sequence(entry.group, [x for x, _ in combo])
            except NotAGeneratingSetError:
                continue
            if canonical_form(build_ggraph(entry.group, seq)).edges == target_form:
                yield entry.group, seq
                break  # one witness per catalog group is enough


def _shape(order: int, masks: Sequence[int]) -> tuple[Counter, Counter]:
    """Edge-multiplicity and distinct-degree histograms of a coset graph.

    ``masks`` are the cyclic subgroups <s_i> of a group of ``order``
    elements, one bit per member.  Two cosets of <s_i> and <s_j> that meet
    share a coset of the intersection, so every edge between classes i and j
    has the multiplicity m = |<s_i> ∩ <s_j>|, there are order/m of them, and
    each vertex of class i meets o_i/m cosets of class j.
    """
    sizes = [mask.bit_count() for mask in masks]
    edges: Counter = Counter()
    degrees: Counter = Counter()
    for i, (mask, size) in enumerate(zip(masks, sizes)):
        distinct = 0
        for j, other in enumerate(masks):
            if j != i:
                common = (mask & other).bit_count()
                distinct += size // common
                if j > i:
                    edges[common] += order // common
        degrees[distinct] += order // size
    return edges, degrees


# Catalog groups up to this order are kept for the life of the process: the
# 271 of them hold 982,651 table cells together, under 4 MiB of int32 tables.
# A larger group is built for the call and dropped.
CATALOG_MEMO_ORDER = 100
_catalog_memo: dict[tuple[int, int], _CatalogEntry] = {}


class _CatalogEntry:
    """A catalog group and what ``witness_search`` reads of it.

    ``pool(o)`` lists a ``(x, mask)`` pair per conjugacy class of order o, in
    class order: the representative x and its cyclic subgroup <x> as an int,
    bit y set for each member y.  Two threads that fill one pool at once
    store equal lists, so no lock is needed.
    """

    __slots__ = ("group", "_pools")

    def __init__(self, group: GroupTable):
        self.group = group
        self._pools: dict[int, list[tuple[int, int]]] = {}

    def pool(self, o: int) -> list[tuple[int, int]]:
        pairs = self._pools.get(o)
        if pairs is None:
            pairs = self._pools[o] = _fill(self.group, o)
        return pairs


def _fill(group: GroupTable, o: int) -> list[tuple[int, int]]:
    """The pairs of ``_CatalogEntry.pool(o)``, from the group and o alone."""
    from .groups import conjugacy_classes, subgroup_closure

    of_order = (group.orders == o).nonzero()[0].tolist()
    # mask_of[y]: a subgroup already found that holds y; an element of order
    # o generates the one it is in
    mask_of: dict[int, int] = {}
    pairs = []
    for cls in conjugacy_classes(group, of_order):
        x = cls[0]
        if x not in mask_of:
            members = subgroup_closure(group, [x])
            mask_of.update(dict.fromkeys(members, sum(1 << y for y in members)))
        pairs.append((x, mask_of[x]))
    return pairs


def _catalog_groups(n: int) -> Iterator[_CatalogEntry]:
    """The catalog entries of order n, in catalog order, each built when reached.

    Entries come from the memo when it holds them; two threads that build one
    entry at once store equal entries.
    """
    for index, make in enumerate(_catalog_makers(n)):
        entry = _catalog_memo.get((n, index))
        if entry is None:
            entry = _CatalogEntry(make())
            if n <= CATALOG_MEMO_ORDER:
                _catalog_memo[n, index] = entry
        yield entry


def _catalog_makers(n: int) -> Iterator[Callable[[], GroupTable]]:
    """A builder for each catalog group of order n, in catalog order."""
    from .groups import (
        make_alternating,
        make_cyclic,
        make_dihedral,
        make_generalized_quaternion,
        make_semidihedral,
        make_symmetric,
    )

    yield partial(make_cyclic, n)
    for parts in _factorizations(n):
        # one abelian group per invariant-factor chain d1 | d2 | ...; the
        # other factorizations are isomorphic to one of these
        if any(b % a for a, b in zip(parts, parts[1:])):
            continue
        yield partial(_abelian, parts)
    # no entry repeats an earlier one up to isomorphism: D4 = Z2xZ2,
    # SD8 = Z2xZ4, S3 = D6 and A3 = Z3 are left out; every other
    # semidihedral order, 8k for k >= 2, is a distinct group
    if n >= 6 and n % 2 == 0:
        yield partial(make_dihedral, n // 2)
    if n % 4 == 0 and n >= 8:
        yield partial(make_generalized_quaternion, n // 4)
    if n % 8 == 0 and n >= 16:
        yield partial(make_semidihedral, n // 8)
    for m in range(4, 9):
        if math.factorial(m) == n:
            yield partial(make_symmetric, m)
        if math.factorial(m) == 2 * n:
            yield partial(make_alternating, m)


def _abelian(parts: Sequence[int]) -> GroupTable:
    """Z_d1 x Z_d2 x ... for the invariant factors ``parts``."""
    from .groups import make_cyclic, make_direct_product

    group = make_cyclic(parts[0])
    for p in parts[1:]:
        group = make_direct_product(group, make_cyclic(p))
    return group


def _factorizations(n: int, smallest: int = 2) -> Iterator[list[int]]:
    """Nondecreasing factorizations of n into >= 2 parts, each >= 2."""
    for d in range(smallest, int(math.isqrt(n)) + 1):
        if n % d == 0:
            yield [d, n // d]
            for rest in _factorizations(n // d, d):
                yield [d] + rest
