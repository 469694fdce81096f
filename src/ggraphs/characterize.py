"""Decides whether a finite graph arises from the right-coset construction.

A coset graph on k generator classes is exactly k-chromatic (the cosets of
one group element form a k-clique, and the classes form a proper coloring),
so the decision procedure works at k = chromatic number: the graph is
accepted iff some proper k-coloring has uniform degree n_i and size m_i per
class with m_i * n_i = 2|E|/k, every n_i/(k-1) integral, and
|G| = 2|E|/(k(k-1)) integral.  Edge counts always include multiplicity.

One backtracker, ``_proper_coloring``, does all the coloring search: it
finds the chromatic number and, given the class size each degree requires,
the conditioned partition.  Every node it visits is charged to one budget
(``node_budget``); when that runs out the verdict is UNDETERMINED.

Accepted verdicts carry recovered parameters and an order-constraints
presentation string.  The presentation lists only the generator orders; it
determines the group parameters, not the group itself, so ``witness_search``
separately looks for an explicit (group, generators) pair realizing the
graph within a catalog of standard families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    InvalidPartitionError,
    NotAGeneratingSetError,
    TooLargeError,
)
from .ggraph import build_ggraph
from .iso import SIZE_BOUND, are_isomorphic
from .multigraph import Multigraph, as_multigraph

# groups loads numpy, so it is imported inside the functions that use a group
if TYPE_CHECKING:
    from .groups import GenSequence, GroupTable

ACCEPT = "ACCEPT"
REFUSE = "REFUSE"
UNDETERMINED = "UNDETERMINED"

SEARCH_VERTEX_BOUND = 64
SEARCH_K_BOUND = 6
DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class CharacterizationVerdict:
    status: str
    k: Optional[int] = None
    class_sizes: Optional[tuple[int, ...]] = None
    class_degrees: Optional[tuple[int, ...]] = None
    group_order: Optional[int] = None
    gen_orders: Optional[tuple[int, ...]] = None
    presentation: Optional[str] = None
    refusal_reason: Optional[str] = None


def order_presentation(orders: Sequence[int]) -> str:
    names = [f"s{i + 1}" for i in range(len(orders))]
    relations = " = ".join(f"{nm}^{o}" for nm, o in zip(names, orders))
    return f"⟨{', '.join(names)} | {relations} = e⟩"


class _BudgetExceeded(Exception):
    pass


class _Budget:
    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _BudgetExceeded


# ---------------------------------------------------------------------------
# coloring machinery
# ---------------------------------------------------------------------------


def _adjacency_masks(mg: Multigraph) -> list[int]:
    masks = [0] * mg.n
    for u, v in mg.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


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


def _has_proper_coloring(mg: Multigraph, k: int, budget: _Budget) -> bool:
    if k <= 0:
        return mg.n == 0
    if k == 1:
        return not mg.edges
    if k >= mg.n:
        return True
    if k == 2:
        return mg.bipartition() is not None
    return _proper_coloring(mg, k, budget) is not None


def _proper_coloring(
    mg: Multigraph, k: int, budget: _Budget,
    required_size: Optional[dict[int, int]] = None,
) -> Optional[list[list[int]]]:
    """Classes of the first proper k-coloring found, or None.

    Vertices are colored in (-degree, id) order, each into an open class or
    the next new one.  With ``required_size`` the coloring must also use all
    k classes, each of one degree d and exactly ``required_size[d]`` vertices:
    a vertex then also conflicts with every vertex of another degree.
    """
    n = mg.n
    conflicts = _adjacency_masks(mg)
    degrees = mg.weighted_degrees()
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    cap = [0] * n  # cap[v]: the most vertices a class may hold once v joins it; 0: no cap
    if required_size is not None:
        same_degree: dict[int, int] = {}
        for v, d in enumerate(degrees):
            same_degree[d] = same_degree.get(d, 0) | 1 << v
        everyone = (1 << n) - 1
        conflicts = [m | everyone ^ same_degree[d] for m, d in zip(conflicts, degrees)]
        cap = [required_size[d] for d in degrees]
    class_masks = [0] * k

    def assign(idx: int, opened: int) -> bool:
        budget.spend()
        if idx == n:
            return required_size is None or opened == k and all(
                m.bit_count() == required_size[degrees[(m & -m).bit_length() - 1]]
                for m in class_masks
            )
        v = order[idx]
        bit, clash, full = 1 << v, conflicts[v], cap[v]
        for c in range(min(opened + 1, k)):
            members = class_masks[c]
            if members & clash or full and members.bit_count() >= full:
                continue
            class_masks[c] |= bit
            if assign(idx + 1, max(opened, c + 1)):
                return True
            class_masks[c] &= ~bit
        return False

    if not assign(0, 0):
        return None
    return [[v for v in range(n) if m >> v & 1] for m in class_masks]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def _single_vertex_verdict() -> CharacterizationVerdict:
    # A one-vertex graph is the coset graph of any cyclic group with one
    # full-order generator; the order is not recoverable from the graph.
    return CharacterizationVerdict(
        status=ACCEPT, k=1, class_sizes=(1,), class_degrees=(0,),
        group_order=None, gen_orders=None, presentation=None,
    )


def _accept(
    k: int, sizes: Sequence[int], degs: Sequence[int], group_order: int,
    orders: Sequence[int],
) -> CharacterizationVerdict:
    return CharacterizationVerdict(
        status=ACCEPT,
        k=k,
        class_sizes=tuple(sizes),
        class_degrees=tuple(degs),
        group_order=group_order,
        gen_orders=tuple(orders),
        presentation=order_presentation(orders),
    )


def _refuse(reason: str, k: Optional[int] = None) -> CharacterizationVerdict:
    return CharacterizationVerdict(status=REFUSE, k=k, refusal_reason=reason)


def _undetermined(reason: str) -> CharacterizationVerdict:
    return CharacterizationVerdict(status=UNDETERMINED, refusal_reason=reason)


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
    if mg.n == 0:
        return _refuse("empty graph")
    if not mg.is_connected():
        return _refuse("disconnected")
    if mg.n == 1:
        return _single_vertex_verdict()

    budget = _Budget(node_budget)
    try:
        if partition is not None:
            return _characterize_with_partition(mg, partition, budget)
        return _characterize_search(mg, budget)
    except _BudgetExceeded:
        return _undetermined("search budget exhausted")


def _characterize_with_partition(
    mg: Multigraph, partition: Sequence[Sequence[int]], budget: _Budget
) -> CharacterizationVerdict:
    classes = [list(cls) for cls in partition]
    if any(not cls for cls in classes):
        raise InvalidPartitionError("partition has an empty class")
    flat = [v for cls in classes for v in cls]
    if sorted(flat) != list(range(mg.n)):
        raise InvalidPartitionError("partition must cover every vertex exactly once")
    where = {}
    for c, cls in enumerate(classes):
        for v in cls:
            where[v] = c
    for u, v in mg.edges:
        if where[u] == where[v]:
            raise InvalidPartitionError(
                f"partition is not proper: edge ({u},{v}) inside class {where[u]}"
            )

    k = len(classes)
    degrees = mg.weighted_degrees()
    total = mg.edge_multiplicity_total()

    class_degs = []
    for c, cls in enumerate(classes):
        degs = {degrees[v] for v in cls}
        if len(degs) != 1:
            return _refuse(f"degrees not uniform within class {c}", k)
        class_degs.append(degs.pop())
    sizes = [len(cls) for cls in classes]

    if (2 * total) % k != 0:
        return _refuse(f"2|E|/k = {2 * total}/{k} not integral", k)
    share = 2 * total // k
    for c in range(k):
        if sizes[c] * class_degs[c] != share:
            return _refuse(
                f"class {c}: size*degree = {sizes[c] * class_degs[c]} != 2|E|/k = {share}",
                k,
            )
    verdict = _verdict_from_parameters(k, sizes, class_degs, total)
    if verdict.status != ACCEPT:
        return verdict
    if mg.n <= SEARCH_VERTEX_BOUND and k >= 2:
        if _has_proper_coloring(mg, k - 1, budget):
            return _refuse(
                f"graph is {k - 1}-colorable, so it is not exactly {k}-chromatic", k
            )
    return verdict


def _verdict_from_parameters(
    k: int, sizes: Sequence[int], class_degs: Sequence[int], total_mult: int
) -> CharacterizationVerdict:
    orders = []
    for c, d in enumerate(class_degs):
        if d % (k - 1) != 0:
            return _refuse(f"generator order {d}/{k - 1} not integral", k)
        orders.append(d // (k - 1))
    if (2 * total_mult) % (k * (k - 1)) != 0:
        return _refuse(
            f"group order {2 * total_mult}/{k * (k - 1)} not integral", k
        )
    group_order = 2 * total_mult // (k * (k - 1))
    for c in range(k):
        if sizes[c] * orders[c] != group_order:
            return _refuse(
                f"class {c}: size*order = {sizes[c] * orders[c]} != |G| = {group_order}",
                k,
            )
    return _accept(k, sizes, class_degs, group_order, orders)


def _characterize_search(mg: Multigraph, budget: _Budget) -> CharacterizationVerdict:
    if mg.n > SEARCH_VERTEX_BOUND:
        return _undetermined(
            f"{mg.n} vertices exceeds the {SEARCH_VERTEX_BOUND}-vertex search bound"
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
        if _has_proper_coloring(mg, candidate, budget):
            k = candidate
            break
    if k is None:
        return _undetermined(
            f"chromatic number exceeds the k <= {SEARCH_K_BOUND} search bound"
        )

    total = mg.edge_multiplicity_total()
    # Integrality screens that no k-chromatic partition can evade.
    for d in sorted(set(degrees)):
        if d % (k - 1) != 0:
            return _refuse(f"generator order {d}/{k - 1} not integral", k)
    if (2 * total) % (k * (k - 1)) != 0:
        return _refuse(f"group order {2 * total}/{k * (k - 1)} not integral", k)
    if (2 * total) % k != 0:
        return _refuse(f"2|E|/k = {2 * total}/{k} not integral", k)
    share = 2 * total // k
    required_size: dict[int, int] = {}
    for d in sorted(set(degrees)):
        if d == 0 or share % d != 0:
            return _refuse(f"class size {share}/{d} not integral", k)
        required_size[d] = share // d

    classes = _proper_coloring(mg, k, budget, required_size)
    if classes is None:
        return _refuse(
            "no chromatic partition has uniform class degrees and balanced sizes",
            k,
        )
    sizes = [len(cls) for cls in classes]
    class_degs = [degrees[cls[0]] for cls in classes]
    return _verdict_from_parameters(k, sizes, class_degs, total)


def characterize_bipartite(graph) -> CharacterizationVerdict:
    """Bipartite decision: accept iff biregular, with |G| = |E|.

    Degrees and the edge count include multiplicity, which keeps the verdict
    consistent with the k = 2 path of :func:`characterize` on double-edged
    graphs.
    """
    mg = as_multigraph(graph)
    if mg.n == 0:
        return _refuse("empty graph")
    if not mg.is_connected():
        return _refuse("disconnected")
    if mg.n == 1:
        return _single_vertex_verdict()
    sides = mg.bipartition()
    if sides is None:
        raise InvalidInputError("graph is not bipartite")
    degrees = mg.weighted_degrees()
    per_side = []
    for c, side in enumerate(sides):
        degs = {degrees[v] for v in side}
        if len(degs) != 1:
            return _refuse(f"degrees not uniform within bipartition side {c}", 2)
        per_side.append(degs.pop())
    total = mg.edge_multiplicity_total()
    return _accept(
        2,
        sizes=(len(sides[0]), len(sides[1])),
        degs=tuple(per_side),
        group_order=total,
        orders=tuple(per_side),
    )


def turan_verdict(n: int, r: int) -> CharacterizationVerdict:
    """Verdict for the Turan graph T(n, r) from its parameters alone.

    Regular Turan graphs (r | n) and all bipartite ones (r = 2) are accepted;
    irregular ones with r > 2 are refused because the two class degrees
    differ by 1 and cannot both yield integral generator orders.
    """
    if not 2 <= r <= n:
        raise InvalidParameterError("need 2 <= r <= n")
    if n % r == 0:
        q = n // r
        return _accept(
            r,
            sizes=(q,) * r,
            degs=(n - q,) * r,
            group_order=q * q,
            orders=(q,) * r,
        )
    if r == 2:
        x = -(-n // 2)
        y = n // 2
        return _accept(
            2, sizes=(x, y), degs=(y, x), group_order=x * y, orders=(y, x)
        )
    lo, hi = n - -(-n // r), n - n // r
    return _refuse(
        f"degrees {lo} and {hi} differ by 1, so generator orders "
        f"{lo}/{r - 1} and {hi}/{r - 1} cannot both be integers",
        r,
    )


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


def witness_search(
    verdict: CharacterizationVerdict,
    target,
    *,
    all_matches: bool = False,
    max_sequences: int = 10**6,
):
    """Best-effort explicit (group, generators) pair realizing the target.

    Scans a catalog of standard families of the accepted group order and all
    generating sequences matching the accepted order multiset, pruned to one
    candidate per (order, conjugacy class).  An empty result means the
    catalog is exhausted, not that the verdict is wrong; no catalog group is
    larger than CLOSURE_LIMIT.
    """
    from .groups import CLOSURE_LIMIT, conjugacy_classes, element_order, make_gen_sequence

    if verdict.status != ACCEPT or not verdict.group_order or not verdict.gen_orders:
        return [] if all_matches else None
    tgt = as_multigraph(target)
    if tgt.n > SIZE_BOUND:
        raise TooLargeError(f"target exceeds {SIZE_BOUND} vertices")
    n_order = verdict.group_order
    wanted = tuple(sorted(verdict.gen_orders))
    k = len(wanted)
    expected_vertices = sum(n_order // o for o in wanted if n_order % o == 0)
    expected_mult = k * (k - 1) // 2 * n_order
    if n_order > CLOSURE_LIMIT or any(n_order % o for o in wanted):
        return [] if all_matches else None
    if expected_vertices != tgt.n or expected_mult != tgt.edge_multiplicity_total():
        return [] if all_matches else None

    hits: list[tuple[GroupTable, GenSequence]] = []
    budget = max_sequences
    for group in _catalog_groups(n_order):
        pools: dict[int, list[int]] = {}
        for cls in conjugacy_classes(group):
            o = element_order(group, cls[0])
            if o in set(wanted):
                pools.setdefault(o, []).append(cls[0])
        if any(o not in pools for o in wanted):
            continue
        for combo in _cartesian(*[pools[o] for o in wanted]):
            budget -= 1
            if budget < 0:
                return hits if all_matches else None
            try:
                seq = make_gen_sequence(group, combo)
            except NotAGeneratingSetError:
                continue
            gg = build_ggraph(group, seq)
            if are_isomorphic(gg, tgt):
                hit = (group, seq)
                if not all_matches:
                    return hit
                hits.append(hit)
                break  # one witness per catalog group is enough
    return hits if all_matches else None


def _catalog_groups(n: int) -> Iterator[GroupTable]:
    from .groups import (
        make_alternating,
        make_cyclic,
        make_dihedral,
        make_direct_product,
        make_generalized_quaternion,
        make_semidihedral,
        make_symmetric,
    )

    yield make_cyclic(n)
    for parts in _factorizations(n):
        # one abelian group per invariant-factor chain d1 | d2 | ...; the
        # other factorizations are isomorphic to one of these
        if any(b % a for a, b in zip(parts, parts[1:])):
            continue
        group = make_cyclic(parts[0])
        for p in parts[1:]:
            group = make_direct_product(group, make_cyclic(p))
        yield group
    if n >= 4 and n % 2 == 0:
        yield make_dihedral(n // 2)
    if n % 4 == 0 and n >= 8:
        yield make_generalized_quaternion(n // 4)
    if n % 8 == 0:
        yield make_semidihedral(n // 8)
    for m in range(3, 9):
        if math.factorial(m) == n:
            yield make_symmetric(m)
        if math.factorial(m) == 2 * n:
            yield make_alternating(m)


def _factorizations(n: int, smallest: int = 2) -> Iterator[list[int]]:
    """Nondecreasing factorizations of n into >= 2 parts, each >= 2."""
    for d in range(smallest, int(math.isqrt(n)) + 1):
        if n % d == 0:
            yield [d, n // d]
            for rest in _factorizations(n // d, d):
                yield [d] + rest
