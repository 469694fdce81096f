"""Finite groups as indexed element tables, plus coset enumeration.

Elements of a group are dense indices ``0 .. order-1``.  Each constructor
supplies one product rule over index arrays (permutation composition,
normal-form arithmetic, or componentwise for direct products).  Groups up to
:data:`TABLE_LIMIT` (1024) elements keep a full multiplication table; larger
groups multiply through the rule.  A permutation group is built through a
stabilizer chain (Schreier-Sims), which lists its elements and, up to
:data:`TABLE_LIMIT`, composes its table; any other group tabulates its rule,
32 rows at a time.  A permutation group finds the index of a product from
its images of the chain's base points, one table read per level, with no
search.
Construction checks the identity law on every element, and associativity
on every triple up to order 64 and, above it, on 10^5 triples drawn with a
fixed seed once per process.  It then derives every inverse as x^(|G|-1),
checks the inverse law, and derives every element order.

Permutation products use the function-composition convention: ``p * q``
applies ``q`` first, then ``p``.  With right cosets ``<s>x = {s^j x}`` this
reproduces the usual printed coset listings for symmetric groups.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ClosureOverflowError,
    InvalidParameterError,
    NotAGeneratingSetError,
    SizeLimitError,
)
from .multigraph import VERTEX_LIMIT

TABLE_LIMIT = 1024
CLOSURE_LIMIT = 10_000
_ASSOC_EXHAUSTIVE_LIMIT = 64
_ASSOC_SAMPLES = 100_000
_CHUNK = 10_000
_BLOCK_ROWS = 32


class GroupTable:
    """A finite group on element indices ``0..order-1``.

    ``mul`` is total, the neutral element is element 0, which every
    constructor lists first (``identity`` reads 0), and ``labels`` gives a
    distinct display string per element.  A ``rule`` maps
    index arrays (or ints) broadcast together to the indices of their
    products.  Constructors pass only the table or rule, the labels and the
    names: the group derives every inverse as x^(|G|-1) and every element
    order, ``orders[x]``, once at construction.  Instances are immutable.
    """

    identity = 0

    __slots__ = (
        "order",
        "labels",
        "family_tag",
        "designated",
        "orders",
        "_flat",
        "_rule",
        "_inv",
        "_label_index",
    )

    def __init__(
        self,
        order: int,
        *,
        table: Optional[np.ndarray] = None,
        rule: Optional[Callable] = None,
        labels: Sequence[str],
        family_tag: Optional[str] = None,
        designated: Optional[dict[str, int]] = None,
    ):
        if order < 1:
            raise InvalidParameterError("group order must be >= 1")
        if table is None and rule is None:
            raise InvalidParameterError("need a multiplication table or rule")
        if table is None and order <= TABLE_LIMIT:
            table = _tabulate(order, rule)
        if table is not None:
            # C order, so that ravel() below is a view and never a copy
            table = np.ascontiguousarray(table)
            if table.shape != (order, order) or table.min() < 0 or table.max() >= order:
                raise InvalidParameterError("table must be order x order over 0..order-1")
        self.order = order
        self.labels = tuple(labels)
        self.family_tag = family_tag
        self.designated = dict(designated or {})
        self._flat = None if table is None else table.ravel()
        self._rule = None if table is not None else rule
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._validate()

    # -- core operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        _require_elements(self, (a, b))
        return int(self.products(a, b))

    def products(self, a, b) -> np.ndarray:
        """``mul`` over index arrays ``a`` and ``b`` broadcast together."""
        if self._flat is not None:
            # one gather from the flat table, about twice as fast as table[a, b]
            return self._flat[np.multiply(a, self.order) + b]
        return self._rule(a, b)

    def inv(self, a: int) -> int:
        _require_elements(self, (a,))
        return int(self._inv[a])

    def index_of_label(self, label: str) -> int:
        return self._label_index[label]

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        tag = self.family_tag or "group"
        return f"GroupTable({tag}, order={self.order})"

    # -- validation --------------------------------------------------------

    def _powers(self, base: np.ndarray, e: int) -> np.ndarray:
        """``base[i]`` to the power ``e`` for every i, by square and multiply."""
        power = np.full(base.size, self.identity)
        while e:
            if e & 1:
                power = self.products(power, base)
            e >>= 1
            if e:
                base = self.products(base, base)
        return power

    def _validate(self) -> None:
        """Check the group axioms, then set ``_inv`` and ``orders``."""
        n = self.order
        e = self.identity
        if len(self.labels) != n:
            raise InvalidParameterError("label count must equal group order")
        if len(set(self.labels)) != n:
            raise InvalidParameterError("labels must be pairwise distinct")
        every = np.arange(n)
        _require(
            (self.products(e, every) == every) & (self.products(every, e) == every),
            "identity law fails at element {}",
        )
        # Associativity: exhaustive for small groups, sampled otherwise, in
        # chunks of at most _CHUNK triples to bound the temporaries.
        if n <= _ASSOC_EXHAUSTIVE_LIMIT:
            chunks = ((a, every[:, None], every[None, :]) for a in range(n))
        else:
            chunks = (
                (words % np.uint32(n)).astype(np.intp) for words in _assoc_sample()
            )
        for a, b, c in chunks:
            left = self.products(self.products(a, b), c)
            holds = left == self.products(a, self.products(b, c))
            if not holds.all():
                i = np.flatnonzero(~holds)[0]
                triple = tuple(int(x.flat[i]) for x in np.broadcast_arrays(a, b, c))
                raise InvalidParameterError(f"associativity fails at {triple}")
        # x^|G| = e in every group of order |G| (Lagrange)
        inv = self._powers(every, n - 1)
        _require(
            (self.products(every, inv) == e) & (self.products(inv, every) == e),
            "inverse law fails at element {}",
        )
        # For each divisor d of |G| in ascending order, raise every element
        # of unknown order to the power d at once, and give order d to those
        # that reach the identity.
        orders = np.zeros(n, dtype=np.intp)
        for d in range(1, n + 1):
            if n % d:
                continue
            todo = np.flatnonzero(orders == 0)
            if not todo.size:
                break
            orders[todo[self._powers(todo, d) == e]] = d
        _require(orders > 0, "element {} has no order dividing the group order")
        inv.flags.writeable = orders.flags.writeable = False
        self._inv = inv
        self.orders = orders


@functools.cache
def _assoc_sample() -> np.ndarray:
    """The words behind the sampled associativity check, drawn once per
    process: ``_ASSOC_SAMPLES // _CHUNK`` chunks of three rows of ``_CHUNK``
    uint32 words each, from successive ``randbytes`` of ``random.Random(0)``.
    Each group reduces them mod its order.  Read-only, since every group
    shares it.
    """
    # stdlib bytes: importing numpy.random would cost 6 MB of RSS
    rng = random.Random(0)
    words = np.empty((_ASSOC_SAMPLES // _CHUNK, 3, _CHUNK), dtype=np.uint32)
    for chunk in words:
        chunk[:] = np.frombuffer(rng.randbytes(12 * _CHUNK), np.uint32).reshape(3, -1)
    words.flags.writeable = False
    return words


def _tabulate(order: int, rule: Callable) -> np.ndarray:
    """The full multiplication table of ``rule``, built in row blocks."""
    table = np.empty((order, order), dtype=np.int32)
    cols = np.arange(order)[None, :]
    for start in range(0, order, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, order))[:, None]
        table[start:start + _BLOCK_ROWS] = rule(rows, cols)
    return table


def _require(holds: np.ndarray, message: str) -> None:
    """Raise with the first element index where ``holds`` is false."""
    failed = np.flatnonzero(~holds)
    if failed.size:
        raise InvalidParameterError(message.format(int(failed[0])))


class GenSequence:
    """An ordered generating sequence; repeats are allowed.

    ``positions[i]`` is an element index and ``orders[i]`` its order, read
    from ``GroupTable.orders``.
    Each position labels one partition class of the coset graph, so the same
    element may legitimately appear twice.
    """

    __slots__ = ("positions", "orders")

    def __init__(self, positions: tuple[int, ...], orders: tuple[int, ...]):
        self.positions = positions
        self.orders = orders

    def __len__(self) -> int:
        return len(self.positions)


class Coset(NamedTuple):
    """A right coset ``<s>x`` of a cyclic subgroup, as sorted element indices."""

    elements: tuple[int, ...]


# ---------------------------------------------------------------------------
# permutation helpers (images tuples, 0-based ground set)
# ---------------------------------------------------------------------------


def cycle_notation(p: tuple[int, ...]) -> str:
    """Format as 1-based disjoint cycles, fixed points omitted; identity is 'e'.

    Points are written with no separator, ``(123)``, unless some moved point
    is 10 or more; then a space separates every two points, ``(1 2)(9 10)``,
    so the label reads back through ``parse_cycles`` and two permutations
    never share one.
    """
    sep = " " if any(p[i] != i for i in range(9, len(p))) else ""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = p[j]
        parts.append("(" + sep.join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


def parse_cycles(text: str, n: Optional[int] = None) -> tuple[int, ...]:
    """Parse cycle notation like ``(12)(34)`` or ``(1 2)`` into an images tuple.

    Points are 1-based in the text.  When ``n`` is None the ground set is the
    largest point mentioned, so a point above ``multigraph.VERTEX_LIMIT`` is
    refused before any list is sized from it.  ``e`` and ``()`` denote the
    identity.
    """
    text = text.strip()
    if text in ("e", "()", "(e)", ""):
        return tuple(range(n)) if n else (0,)
    if text[0] != "(" or text[-1] != ")":
        raise InvalidParameterError(f"not cycle notation: {text!r}")
    cycles: list[list[int]] = []
    seen: set[int] = set()
    for chunk in text[1:-1].split(")("):
        pts = []
        cleaned = chunk.replace(",", " ")
        if " " in cleaned.strip():
            tokens = cleaned.split()
        else:
            tokens = list(cleaned.strip())
        for tok in tokens:
            if not tok.isdigit():
                raise InvalidParameterError(f"bad cycle point {tok!r} in {text!r}")
            point = int(tok)
            if point == 0:
                raise InvalidParameterError(f"point 0 in {text!r}: points start at 1")
            if point > VERTEX_LIMIT:
                raise InvalidParameterError(f"point {point} in {text!r} exceeds {VERTEX_LIMIT}")
            if point in seen:
                raise InvalidParameterError(f"point {point} occurs twice in {text!r}")
            seen.add(point)
            pts.append(point)
        if len(pts) < 2:
            raise InvalidParameterError(f"cycle too short in {text!r}")
        cycles.append(pts)
    top = max(max(c) for c in cycles)
    if n is None:
        n = top
    elif top > n:
        raise InvalidParameterError(f"point {top} exceeds ground set size {n}")
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b - 1
    return tuple(images)


# ---------------------------------------------------------------------------
# stabilizer chains (Schreier-Sims)
# ---------------------------------------------------------------------------


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix every earlier base point, and the orbit of the point under them.
    ``maps[i]`` maps the point to ``orbit[i]`` and ``undo[i]`` is its inverse,
    both rows of images.  The orbit, the generators and the maps only ever
    grow, so a Schreier generator once sifted stays sifted.
    """

    __slots__ = ("point", "gens", "orbit", "slot", "maps", "undo", "applied", "checked")

    def __init__(self, point: int, identity: np.ndarray):
        self.point = point
        self.gens: list[np.ndarray] = []
        self.orbit = [point]
        self.slot = {point: 0}  # orbit point -> its position in orbit
        self.maps = [identity]
        self.undo = [identity]
        self.applied = [0]  # per orbit point: generators applied to it so far
        self.checked = [0]  # per orbit point: Schreier generators sifted so far

    def add(self, gen: np.ndarray) -> None:
        """Add a generator and close the orbit under every generator."""
        self.gens.append(gen)
        i = 0
        while i < len(self.orbit):
            point, u = self.orbit[i], self.maps[i]
            for s in self.gens[self.applied[i]:]:
                image = int(s[point])
                if image not in self.slot:
                    self.slot[image] = len(self.orbit)
                    self.orbit.append(image)
                    self.maps.append(s[u])  # s after u
                    self.undo.append(_inverse(self.maps[-1]))
                    self.applied.append(0)
                    self.checked.append(0)
            self.applied[i] = len(self.gens)
            i += 1


def _inverse(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


def _longest_orbit(gens: np.ndarray) -> int:
    """The number of points in the longest orbit of the rows of ``gens``."""
    rows = gens.tolist()
    seen = [False] * gens.shape[1]
    longest = 0
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:
            for row in rows:
                if not seen[row[x]]:
                    seen[row[x]] = True
                    orbit.append(row[x])
        longest = max(longest, len(orbit))
    return longest


def _stabilizer_chain(gens: np.ndarray, limit: Optional[int] = None) -> Optional[list[_Level]]:
    """A base and strong generating set of the group that the rows of
    ``gens`` (a ``(k, d)`` array of images) generate, as one level per base
    point: deterministic Schreier-Sims (Sims, 1970; Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 4).  The group's
    order is the product of the orbit lengths.

    That product only grows as the chain is built and never exceeds the
    order, so the chain stops and returns None as soon as it passes
    ``limit``.  No orbit is longer than the group, so it returns None before
    it stores any map when some point's orbit under ``gens`` is longer than
    ``limit``.
    """
    if limit is not None and _longest_orbit(gens) > limit:
        return None
    identity = np.arange(gens.shape[1], dtype=gens.dtype)
    ident = identity.tobytes()
    levels: list[_Level] = []

    def add(h: np.ndarray, first: int) -> None:
        # h fixes the points of the levels before ``first``
        if all(h[lev.point] == lev.point for lev in levels[first:]):
            levels.append(_Level(int(np.flatnonzero(h != identity)[0]), identity))
        for lev in levels[first:]:
            lev.add(h)
            if h[lev.point] != lev.point:
                break

    def sift(g: np.ndarray, start: int) -> tuple[np.ndarray, int]:
        for j in range(start, len(levels)):
            lev = levels[j]
            at = lev.slot.get(int(g[lev.point]))
            if at is None:
                return g, j
            g = lev.undo[at][g]
        return g, len(levels)

    def too_large() -> bool:
        return limit is not None and math.prod(len(lev.orbit) for lev in levels) > limit

    for s in gens:
        if s.tobytes() != ident:
            add(s, 0)
    if too_large():
        return None
    i = len(levels) - 1
    while i >= 0:
        lev = levels[i]
        found = None
        for at, point in enumerate(lev.orbit):
            u = lev.maps[at]
            for s in lev.gens[lev.checked[at]:]:
                lev.checked[at] += 1
                # the Schreier generator u_{s(point)}^-1 s u fixes lev.point
                g, j = sift(lev.undo[lev.slot[int(s[point])]][s[u]], i + 1)
                if j < len(levels) or g.tobytes() != ident:
                    found = g, j
                    break
            if found:
                break
        if found is None:
            i -= 1
            continue
        h, j = found
        add(h, i + 1)
        if too_large():
            return None
        i = j
    return levels


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _permutation_group(
    gens: np.ndarray, family_tag: Optional[str], limit: Optional[int] = None
) -> GroupTable:
    """The group that the rows of ``gens`` (a ``(k, d)`` array of images)
    generate, through its stabilizer chain.  Raises ClosureOverflowError past
    ``limit`` elements, before any is listed.

    The chain lists each element as one product u_1 u_2 ... u_k of maps from
    the levels, numbered by its maps' orbit positions in mixed radix, top
    level first: block products of the levels' map arrays.  The elements are
    then sorted, and ``sorted_at[c]`` is the index of the one listed c-th.
    The identity, the row 0..d-1, sorts first.

    The chain's base points b_1..b_k find an element from its images, with
    no search.  Take g = u_1 ... u_k and W = (u_1 ... u_{l-1})^-1.  Every map
    below level l fixes b_l, so u_l maps b_l to W[g[b_l]], whose orbit slot
    is u_l's position.  Level l keeps a table from the positions p of
    u_1..u_{l-1} and a point x to the start of the next level's cells,
    ``(p * |O_l| + slot[W_p[x]]) * d``; the last level keeps the sorted
    index instead.  A product is found by k table reads.
    Level l has d times the product of the orbit lengths above it cells;
    every orbit has two points or more, so the tables hold fewer cells than
    the group's n x d images.

    Up to :data:`TABLE_LIMIT` elements the multiplication table comes from
    the chain, not from n^2 lookups (see :func:`_chain_table`).
    """
    levels = _stabilizer_chain(gens, limit)
    if levels is None:
        raise ClosureOverflowError(f"closure exceeds {limit} elements")
    d = gens.shape[1]
    identity = np.arange(d, dtype=gens.dtype)[None, :]
    perms = identity
    for lev in reversed(levels):
        # (u after p)[x] = u[p[x]]; the row of (i, r) lands at i * len(p) + r
        perms = np.array(lev.maps)[:, perms].reshape(-1, d)
    order = np.lexsort(perms.T[::-1])
    perms = perms[order]
    n = len(perms)
    sorted_at = np.empty(n, dtype=np.intp)
    sorted_at[order] = np.arange(n)
    # one row at a time: a list of every image would be the peak of a wide group
    labels = [cycle_notation(p.tolist()) for p in perms]

    tables = []
    undo = identity  # the row W_p of each prefix p, top level first
    for lev in levels:
        slot = np.zeros(d, dtype=np.intp)
        slot[lev.orbit] = np.arange(len(lev.orbit))
        cell = slot[undo]
        cell += np.arange(len(undo))[:, None] * len(lev.orbit)
        if lev is levels[-1]:
            cell = sorted_at[cell]
        else:
            cell *= d
            # W of prefix p extended by u_j is u_j^-1 W_p, at p * |O_l| + j
            rows = np.arange(len(lev.orbit))[:, None]
            undo = np.array(lev.undo)[rows, undo[:, None]].reshape(-1, d)
        tables.append(cell.ravel())

    def index(images):
        """Element indices from the images of b_1, b_2, ... in order."""
        at = 0
        for table, image in zip(tables, images):
            at = table[at + image]
        return at

    flat = perms.ravel()
    columns = [np.ascontiguousarray(perms[:, lev.point]) for lev in levels]

    def rule(a, b):
        # (p*q)[b_l] = p[q[b_l]], read from p's row in the flattened array
        base = np.multiply(a, d)
        return index(flat[base + column[b]] for column in columns)

    lengths = [len(lev.orbit) for lev in levels]
    table = _chain_table(rule, sorted_at, lengths) if n <= TABLE_LIMIT else None
    return GroupTable(n, table=table, rule=rule, labels=labels, family_tag=family_tag)


def _chain_table(rule: Callable, sorted_at: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """The int32 multiplication table of a group listed by a stabilizer
    chain (see :func:`_permutation_group`), one level at a time."""
    n = len(sorted_at)
    every = np.arange(n)
    rows = every[None, :].astype(np.int32)  # the products of the levels below
    stride = 1

    def maps(length):
        # the left-multiplication rows of a level's maps, which the chain
        # lists at i * stride
        return rule(sorted_at[np.arange(length) * stride][:, None], every).astype(np.int32)

    for length in reversed(lengths[1:]):
        rows = maps(length)[:, rows].reshape(-1, n)
        stride *= length
    if not lengths:
        return rows
    # the top level writes each block straight into its sorted rows
    table = np.empty((n, n), dtype=np.int32)
    for i, row in enumerate(maps(lengths[0])):
        table[sorted_at[i * stride:(i + 1) * stride]] = row[rows]
    return table


def make_cyclic(n: int) -> GroupTable:
    """Z_n under addition mod n; element i is labelled str(i)."""
    if n < 1:
        raise InvalidParameterError("cyclic group order must be >= 1")
    if n > CLOSURE_LIMIT:
        raise SizeLimitError(f"group order {n} exceeds {CLOSURE_LIMIT}")
    return GroupTable(
        n, rule=lambda a, b: (a + b) % n, labels=[str(i) for i in range(n)],
        family_tag=f"Z{n}",
    )


def make_trivial() -> GroupTable:
    return GroupTable(
        1, table=np.zeros((1, 1), dtype=np.int32), labels=["e"], family_tag="Z1",
        designated={"e": 0},
    )


def make_klein() -> GroupTable:
    """The Klein four-group; mul is XOR on two bits, labels e,a,b,ab."""
    return GroupTable(
        4, rule=np.bitwise_xor, labels=["e", "a", "b", "ab"],
        family_tag="V4", designated={"a": 1, "b": 2, "ab": 3},
    )


def make_direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Componentwise product; element (x, y) has index x*|h| + y, so the
    identity (0, 0) is element 0."""
    n, m = g.order, h.order
    total = n * m
    if total > CLOSURE_LIMIT:
        raise SizeLimitError(f"product order {total} exceeds {CLOSURE_LIMIT}")
    labels = [
        f"({g.labels[x]},{h.labels[y]})" for x in range(n) for y in range(m)
    ]
    tag = None
    if g.family_tag and h.family_tag:
        tag = f"{g.family_tag}x{h.family_tag}"

    def rule(a, b):
        return g.products(a // m, b // m) * m + h.products(a % m, b % m)

    return GroupTable(total, rule=rule, labels=labels, family_tag=tag)


def make_symmetric(n: int) -> GroupTable:
    """S_n on {1..n} with cycle-notation labels; bounded at n <= 8."""
    if not 1 <= n <= 8:
        raise SizeLimitError("symmetric group supported for 1 <= n <= 8")
    # (1 2) and (1 2 ... n)
    gens = np.array([np.arange(n), np.roll(np.arange(n), -1)], dtype=np.uint8)
    if n > 1:
        gens[0, :2] = 1, 0
    return _permutation_group(gens, f"S{n}")


def make_alternating(n: int) -> GroupTable:
    """A_n, the even permutations of {1..n}; bounded at n <= 8."""
    if not 1 <= n <= 8:
        raise SizeLimitError("alternating group supported for 1 <= n <= 8")
    # the 3-cycles (1 2 i) for 3 <= i <= n
    gens = np.tile(np.arange(n, dtype=np.uint8), (max(n - 2, 0), 1))
    for i, row in enumerate(gens, start=2):
        row[[0, 1, i]] = 1, i, 0
    return _permutation_group(gens, f"A{n}")


def _normal_form_group(
    na: int, twist: int, square: int, family_tag: str, designated: dict[str, int]
) -> GroupTable:
    """Group on normal forms a^i b^j (0 <= i < na, j in {0,1}).

    Index = i + na*j.  The relations are a^na = e, b a = a^twist b and
    b^2 = a^square, with twist^2 = 1 mod na.  ``designated`` names a
    (index 1) and b (index na) first, in that order, and the labels spell
    the normal forms with those names.
    """
    total = 2 * na
    if total > CLOSURE_LIMIT:
        raise SizeLimitError(f"group order {total} exceeds {CLOSURE_LIMIT}")
    gen_a_label, gen_b_label = list(designated)[:2]

    def label(i: int, j: int) -> str:
        ai = "" if i == 0 else (gen_a_label if i == 1 else f"{gen_a_label}{i}")
        bj = "" if j == 0 else gen_b_label
        return (ai + bj) or "e"

    labels = [label(i, j) for j in (0, 1) for i in range(na)]

    def rule(x, y):
        i1, j1 = x % na, x // na
        i2, j2 = y % na, y // na
        i3 = (i1 + (1 + j1 * (twist - 1)) * i2 + square * j1 * j2) % na
        return i3 + na * ((j1 + j2) % 2)

    return GroupTable(
        total, rule=rule, labels=labels, family_tag=family_tag, designated=designated,
    )


def make_dihedral(n: int) -> GroupTable:
    """D_2n = <r, s | r^n = s^2 = e, s r s = r^-1>, order 2n.

    Designated generators: ``r`` (order n), ``s`` (order 2) and the second
    reflection ``t`` = r*s, labelled ``rs``, used by the two-reflection
    generating set.
    """
    if n < 2:
        raise InvalidParameterError("dihedral parameter must be >= 2")
    return _normal_form_group(n, -1, 0, f"D{2 * n}", {"r": 1, "s": n, "t": n + 1})


def make_generalized_quaternion(n: int) -> GroupTable:
    """Order-4n group <a, b | a^2n = e, b^2 = a^n, a b = b a^(2n-1)>."""
    if n < 2:
        raise InvalidParameterError("generalized quaternion parameter must be >= 2")
    return _normal_form_group(2 * n, -1, n, f"Q{4 * n}", {"a": 1, "b": 2 * n})


def make_semidihedral(k: int) -> GroupTable:
    """Order-8k group <a, b | a^4k = b^2 = e, b a = a^(2k-1) b>."""
    if k < 1:
        raise InvalidParameterError("semidihedral parameter must be >= 1")
    return _normal_form_group(4 * k, 2 * k - 1, 0, f"SD{8 * k}", {"a": 1, "b": 4 * k})


def closure_from_permutations(gens: Iterable[tuple[int, ...] | str]) -> GroupTable:
    """The group a set of permutations generates, capped at
    :data:`CLOSURE_LIMIT` elements.

    Accepts images tuples or cycle-notation strings; all generators must act
    on the same ground set (inferred as the largest point mentioned when
    strings are given).
    """
    raw = list(gens)
    if not raw:
        raise InvalidParameterError("need at least one permutation")
    if any(isinstance(p, str) for p in raw):
        width = 1
        parsed = []
        for p in raw:
            img = parse_cycles(p) if isinstance(p, str) else tuple(p)
            parsed.append(img)
            width = max(width, len(img))
        raw = [tuple(img) + tuple(range(len(img), width)) for img in parsed]
    width = len(raw[0])
    if not width:
        raise InvalidParameterError("a permutation on zero points generates no group")
    if any(len(p) != width for p in raw):
        raise InvalidParameterError("permutations act on different ground sets")
    if any(sorted(p) != list(range(width)) for p in raw):
        raise InvalidParameterError("generators must be permutations of 0..n-1")
    gens = np.array(raw, dtype=np.min_scalar_type(width - 1))
    return _permutation_group(gens, None, limit=CLOSURE_LIMIT)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def element_order(g: GroupTable, x: int) -> int:
    """Smallest t >= 1 with x^t = identity."""
    _require_elements(g, [x])
    return int(g.orders[x])


def make_gen_sequence(g: GroupTable, elements: Sequence[int]) -> GenSequence:
    """Validate that ``elements`` generate ``g`` and read their orders from
    ``g.orders``.

    Raises NotAGeneratingSetError when the closure of the elements and their
    inverses is a proper subgroup.
    """
    positions = tuple(int(x) for x in elements)
    if len(positions) < 1:
        raise InvalidParameterError("generating sequence must be non-empty")
    if len(subgroup_closure(g, positions)) != g.order:
        raise NotAGeneratingSetError(
            "elements do not generate the group: "
            + ", ".join(g.labels[x] for x in positions)
        )
    return GenSequence(positions, tuple(g.orders[list(positions)].tolist()))


def _require_elements(g: GroupTable, elements: Iterable[int]) -> None:
    """Refuse an index outside ``0..order-1``, which numpy would wrap."""
    for x in elements:
        if not 0 <= x < g.order:
            raise InvalidParameterError(f"element index {x} out of range")


def subgroup_closure(
    g: GroupTable, elements: Sequence[int], cap: Optional[int] = None
) -> list[int]:
    """Sorted element indices of the subgroup generated by ``elements``.

    The closure is naturally bounded by |G|; pass ``cap`` to fail early when
    a quadratic structure is about to be built from the result.
    """
    _require_elements(g, elements)
    gens = np.array(sorted({*elements, *map(g.inv, elements)}), dtype=np.intp)
    seen = np.zeros(g.order, dtype=bool)
    seen[g.identity] = True
    size = 1
    # slot[x]: a position of x in the candidate list, to drop repeats
    slot = np.zeros(g.order, dtype=np.intp)
    frontier = np.array([g.identity])
    while frontier.size:
        reached = g.products(gens[:, None], frontier[None, :]).ravel()
        fresh = reached[~seen[reached]]
        slot[fresh] = np.arange(fresh.size)
        frontier = fresh[slot[fresh] == np.arange(fresh.size)]
        seen[frontier] = True
        size += frontier.size
        if cap is not None and size > cap:
            raise ClosureOverflowError(f"subgroup closure exceeds {cap} elements")
    return np.flatnonzero(seen).tolist()


def subgroup_table(g: GroupTable, elements: Sequence[int]) -> tuple[GroupTable, dict[int, int]]:
    """GroupTable of the subgroup generated by ``elements``.

    Returns the subgroup (re-indexed densely in the parent's order, so the
    identity stays element 0) together with the map from parent element
    index to subgroup index.  Capped at :data:`CLOSURE_LIMIT`
    elements like every other constructor.
    """
    members = np.array(subgroup_closure(g, elements, cap=CLOSURE_LIMIT))
    to_sub = np.full(g.order, -1, dtype=np.intp)
    to_sub[members] = np.arange(len(members))

    def rule(a, b):
        return to_sub[g.products(members[a], members[b])]

    sub = GroupTable(len(members), rule=rule, labels=[g.labels[x] for x in members])
    return sub, {x: i for i, x in enumerate(members.tolist())}


def right_cosets(g: GroupTable, s: int) -> list[Coset]:
    """All right cosets <s>x, ordered by their minimum element index.

    The cosets partition the group; there are exactly |G|/o(s) of them, each
    of size o(s).  The coset of x is the orbit x, sx, s^2 x, ... of left
    multiplication by s.  Which class of a coset graph a coset belongs to is
    the position of the partition that holds it, not stored on the coset.
    """
    _require_elements(g, [s])
    left = g.products(s, np.arange(g.order)).tolist()
    seen = [False] * g.order
    out = []
    for x in range(g.order):
        if seen[x]:
            continue
        members = [x]
        y = left[x]
        while y != x:
            members.append(y)
            y = left[y]
        members.sort()
        for m in members:
            seen[m] = True
        out.append(Coset(tuple(members)))
    return out


def conjugacy_classes(
    g: GroupTable, among: Optional[Iterable[int]] = None
) -> list[list[int]]:
    """Conjugacy classes, each sorted, ordered by their minimum element.

    With ``among``, a union of classes (say every element of one order),
    only the classes inside it.
    """
    every = np.arange(g.order)
    candidates = range(g.order) if among is None else sorted(among)
    _require_elements(g, candidates)
    seen = np.zeros(g.order, dtype=bool)
    classes = []
    for x in candidates:
        if seen[x]:
            continue
        members = np.zeros(g.order, dtype=bool)
        members[g.products(g.products(every, x), g._inv)] = True
        seen |= members
        classes.append(np.flatnonzero(members).tolist())
    return classes
