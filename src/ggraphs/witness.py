"""Explicit (group, generators) pairs that realize an accepted graph.

``characterize`` recovers |G| and the generator orders but not the group:
its order-constraints presentation determines the parameters, not the
group.  ``witness_search`` looks for an explicit pair within a catalog of
standard families: cyclic and abelian groups, dihedral, generalized
quaternion and semidihedral groups, and S_m and A_m for m = 4..8.

Of the characterisation, only this module imports ``ggraph`` and ``iso``,
so ``ggraphs characterize`` loads neither.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from itertools import product as _cartesian
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from .characterize import ACCEPT, CharacterizationVerdict
from .errors import NotAGeneratingSetError, TooLargeError
from .ggraph import build_ggraph
from .iso import _first_leaf, _reaches
from .multigraph import SIZE_BOUND, as_multigraph

# groups loads numpy, so it is imported inside the functions that use a group
if TYPE_CHECKING:
    from .groups import GenSequence, GroupTable


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
    target's.  Only the rest are closed and built.  A built graph is a
    witness when its search reaches a leaf with the encoding of the target's
    first leaf, as in ``are_isomorphic``; neither graph is labeled
    canonically.  None means the catalog is exhausted, not that the verdict
    is wrong; no catalog group is larger than CLOSURE_LIMIT.  A verdict whose
    orders are not positive integers gets None too.
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

    # every candidate has the target's vertex count and edge total, so a
    # leaf with the encoding of the target's first leaf decides isomorphism
    adj = tgt.adjacency()
    goal = _first_leaf(tgt, adj)
    target_shape = (Counter(tgt.edges.values()), Counter(map(len, adj)))
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
            if _reaches(build_ggraph(entry.group, seq).to_multigraph(), goal):
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
