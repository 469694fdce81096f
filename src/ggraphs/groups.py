"""Finite groups as indexed element tables, plus coset enumeration.

Elements of a group are dense indices ``0 .. order-1``.  Each constructor
supplies one product rule over index arrays (permutation composition,
normal-form arithmetic, or componentwise for direct products).  Groups up to
:data:`TABLE_LIMIT` (1024) elements tabulate it, 32 rows at a time, into a
full multiplication table; larger groups multiply through the rule.  A
permutation group finds the index of a product from its images of a base of
the group, read through one small table per base point, with no search.
Construction checks the identity and inverse laws on every element, and
associativity on every triple up to order 64 and, above it, on 10^5 triples
drawn with a fixed seed once per process.

Permutation products use the function-composition convention: ``p * q``
applies ``q`` first, then ``p``.  With right cosets ``<s>x = {s^j x}`` this
reproduces the usual printed coset listings for symmetric groups.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import permutations as _iter_permutations
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ClosureOverflowError,
    InvalidParameterError,
    NotAGeneratingSetError,
    SizeLimitError,
)

TABLE_LIMIT = 1024
CLOSURE_LIMIT = 10_000
_ASSOC_EXHAUSTIVE_LIMIT = 64
_ASSOC_SAMPLES = 100_000
_CHUNK = 10_000
_BLOCK_ROWS = 32


class GroupTable:
    """A finite group on element indices ``0..order-1``.

    ``mul`` is total, ``identity`` is the index of the neutral element and
    ``labels`` gives a distinct display string per element.  A ``rule`` maps
    index arrays (or ints) broadcast together to the indices of their
    products.  Instances are immutable after construction, except for
    ``_order_cache``, a memo of element orders that ``element_order`` fills,
    and safe to share between threads: a dict store is atomic under the GIL,
    and every thread stores the same order for an element.
    """

    __slots__ = (
        "order",
        "identity",
        "labels",
        "family_tag",
        "designated",
        "_flat",
        "_rule",
        "_inv",
        "_label_index",
        "_order_cache",
    )

    def __init__(
        self,
        order: int,
        *,
        table: Optional[np.ndarray] = None,
        rule: Optional[Callable] = None,
        inv: Optional[Sequence[int]] = None,
        identity: int = 0,
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
        self.identity = identity
        self.labels = tuple(labels)
        self.family_tag = family_tag
        self.designated = dict(designated or {})
        self._flat = None if table is None else table.ravel()
        self._rule = None if table is not None else rule
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._order_cache: dict[int, int] = {}
        if inv is not None:
            self._inv = tuple(inv)
        else:
            self._inv = self._solve_inverses()
        self._validate()

    # -- core operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.products(a, b))

    def products(self, a, b) -> np.ndarray:
        """``mul`` over index arrays ``a`` and ``b`` broadcast together."""
        if self._flat is not None:
            # one gather from the flat table, about twice as fast as table[a, b]
            return self._flat[np.multiply(a, self.order) + b]
        return self._rule(a, b)

    def inv(self, a: int) -> int:
        return self._inv[a]

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(x), -k)
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def index_of_label(self, label: str) -> int:
        return self._label_index[label]

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        tag = self.family_tag or "group"
        return f"GroupTable({tag}, order={self.order})"

    # -- validation --------------------------------------------------------

    def _solve_inverses(self) -> tuple[int, ...]:
        # Only table-backed groups; rule-backed constructors pass inverses.
        if self._flat is None:
            raise InvalidParameterError("rule-backed groups must supply inverses")
        hits = self._flat.reshape(self.order, self.order) == self.identity
        _require(hits.sum(axis=1) == 1, "element {} lacks a unique inverse")
        return tuple(hits.argmax(axis=1).tolist())

    def _validate(self) -> None:
        n = self.order
        e = self.identity
        if len(self.labels) != n:
            raise InvalidParameterError("label count must equal group order")
        if len(set(self.labels)) != n:
            raise InvalidParameterError("labels must be pairwise distinct")
        inv = np.asarray(self._inv)
        if not 0 <= e < n or inv.shape != (n,) or not ((inv >= 0) & (inv < n)).all():
            raise InvalidParameterError("identity and inverses must be element indices")
        every = np.arange(n)
        _require(
            (self.products(e, every) == every) & (self.products(every, e) == every),
            "identity law fails at element {}",
        )
        _require(
            (self.products(every, inv) == e) & (self.products(inv, every) == e),
            "inverse law fails at element {}",
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


@dataclass(frozen=True)
class GenSequence:
    """An ordered generating sequence; repeats are allowed.

    ``positions[i]`` is an element index and ``orders[i]`` its cached order.
    Each position labels one partition class of the coset graph, so the same
    element may legitimately appear twice.
    """

    positions: tuple[int, ...]
    orders: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class Coset:
    """A right coset ``<s>x`` of a cyclic subgroup, as sorted element indices."""

    gen_position: int
    elements: tuple[int, ...]

    @property
    def rep(self) -> int:
        return self.elements[0]


# ---------------------------------------------------------------------------
# permutation helpers (images tuples, 0-based ground set)
# ---------------------------------------------------------------------------


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p * q: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def parity(p: tuple[int, ...]) -> int:
    """0 for even permutations, 1 for odd."""
    seen = [False] * len(p)
    odd = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        odd ^= (length - 1) & 1
    return odd


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
    largest point mentioned.  ``e`` and ``()`` denote the identity.
    """
    text = text.strip()
    if text in ("e", "()", "(e)", ""):
        return tuple(range(n)) if n else (0,)
    if text[0] != "(" or text[-1] != ")":
        raise InvalidParameterError(f"not cycle notation: {text!r}")
    cycles: list[list[int]] = []
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
            pts.append(int(tok))
        if len(pts) < 2:
            raise InvalidParameterError(f"cycle too short in {text!r}")
        if len(set(pts)) != len(pts):
            raise InvalidParameterError(f"repeated point in {text!r}")
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
# constructors
# ---------------------------------------------------------------------------


def _group_from_permutations(perms: np.ndarray, family_tag: Optional[str]) -> GroupTable:
    """Assemble a GroupTable from an ``(n, d)`` array of distinct permutations
    (rows of images) in ascending lexicographic order, closed under
    composition.

    The columns c_0..c_{k-1} that decide the row order are a base of the
    group: an element is fixed by its images of those points.  Level l
    numbers the images that occur in column c_l (its alphabet, of size a_l)
    and keeps a table from a row's prefix on c_0..c_{l-1} and the code of its
    image at c_l to the rank of its prefix on c_0..c_l among the distinct
    prefixes.  The rows are sorted, so these ranks ascend with the rows, and
    the rank at the last level is the element's index: a product, an inverse
    or the identity is found by k table reads, with no search.

    The tables hold fewer cells than ``perms``.  Level l has width_{l-1} * a_l
    cells, where width_{l-1} is the number of distinct prefixes on
    c_0..c_{l-1}: the cosets of their pointwise stabilizer.  Each kept column
    splits every such coset into at least two, so width_{l-1} <= n / 2^(k-l),
    and with a_l <= d the sum over l stays below n * d.
    """
    n, d = perms.shape
    cols = _deciding_columns(perms)
    codes = []
    for c in cols:
        # np.unique would load numpy.ma, 0.8 MB of RSS
        occurs = np.zeros(d, dtype=np.intp)
        occurs[perms[:, c]] = 1
        codes.append(np.cumsum(occurs) - 1)
    sizes = [int(code[-1]) + 1 for code in codes]
    # Each table stores the rank times the next alphabet size, which is where
    # the next level's cells of that prefix start.
    levels = []
    start = np.zeros(n, dtype=np.intp)
    for c, code, size, stride in zip(cols, codes, sizes, sizes[1:] + [1]):
        cell = start + code[perms[:, c]]
        rank = np.cumsum(np.concatenate(([False], cell[1:] != cell[:-1])))
        table = np.zeros(int(start[-1]) + size, dtype=np.intp)
        start = rank * stride
        table[cell] = start
        levels.append((code, table))

    def index(images):
        """Element indices from the images of c_0, c_1, ... in order."""
        at = 0
        for (code, table), image in zip(levels, images):
            at = table[at + code[image]]
        return at

    flat = perms.ravel()
    columns = [np.ascontiguousarray(perms[:, c]) for c in cols]

    def rule(a, b):
        # (p*q)[c] = p[q[c]], read from p's row in the flattened array
        base = np.multiply(a, d)
        return index(flat[base + column[b]] for column in columns)

    # the images of an inverse: p^-1[p[j]] = j
    undo = np.empty_like(perms)
    undo[np.arange(n)[:, None], perms] = np.arange(d, dtype=perms.dtype)
    inverses = index(undo[:, c] for c in cols)
    identity = int(index(cols))
    labels = [cycle_notation(p) for p in perms.tolist()]
    return GroupTable(
        n, rule=rule, inv=inverses.tolist(), identity=identity, labels=labels,
        family_tag=family_tag,
    )


def _deciding_columns(perms: np.ndarray) -> list[int]:
    """Columns that decide the order of sorted, distinct rows: column 0, and
    each column that splits adjacent rows agreeing on every column before it.
    On a group each kept column multiplies the number of distinct prefixes
    (cosets of a point stabilizer), so at most log2(n) are kept.
    """
    cols: list[int] = []
    split = np.zeros(len(perms) - 1, dtype=bool)
    for c in range(perms.shape[1]):
        now = split | (perms[1:, c] != perms[:-1, c])
        if not cols or now.sum() > split.sum():
            cols.append(c)
        split = now
    return cols


def make_cyclic(n: int) -> GroupTable:
    """Z_n under addition mod n; element i is labelled str(i)."""
    if n < 1:
        raise InvalidParameterError("cyclic group order must be >= 1")
    if n > CLOSURE_LIMIT:
        raise SizeLimitError(f"group order {n} exceeds {CLOSURE_LIMIT}")
    return GroupTable(
        n, rule=lambda a, b: (a + b) % n, inv=[(-i) % n for i in range(n)],
        identity=0, labels=[str(i) for i in range(n)], family_tag=f"Z{n}",
    )


def make_trivial() -> GroupTable:
    return GroupTable(
        1, table=np.zeros((1, 1), dtype=np.int32), inv=[0], identity=0,
        labels=["e"], family_tag="Z1", designated={"e": 0},
    )


def make_klein() -> GroupTable:
    """The Klein four-group; mul is XOR on two bits, labels e,a,b,ab."""
    return GroupTable(
        4, rule=np.bitwise_xor, inv=[0, 1, 2, 3], identity=0,
        labels=["e", "a", "b", "ab"], family_tag="V4",
        designated={"a": 1, "b": 2, "ab": 3},
    )


def make_direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Componentwise product; element (x, y) has index x*|h| + y."""
    n, m = g.order, h.order
    total = n * m
    if total > CLOSURE_LIMIT:
        raise SizeLimitError(f"product order {total} exceeds {CLOSURE_LIMIT}")
    labels = [
        f"({g.labels[x]},{h.labels[y]})" for x in range(n) for y in range(m)
    ]
    inv = [g.inv(x) * m + h.inv(y) for x in range(n) for y in range(m)]
    identity = g.identity * m + h.identity
    tag = None
    if g.family_tag and h.family_tag:
        tag = f"{g.family_tag}x{h.family_tag}"

    def rule(a, b):
        return g.products(a // m, b // m) * m + h.products(a % m, b % m)

    return GroupTable(
        total, rule=rule, inv=inv, identity=identity, labels=labels,
        family_tag=tag,
    )


def make_symmetric(n: int) -> GroupTable:
    """S_n on {1..n} with cycle-notation labels; bounded at n <= 8."""
    if not 1 <= n <= 8:
        raise SizeLimitError("symmetric group supported for 1 <= n <= 8")
    perms = list(_iter_permutations(range(n)))
    return _group_from_permutations(np.array(perms, dtype=np.uint8), f"S{n}")


def make_alternating(n: int) -> GroupTable:
    """A_n, the even permutations of {1..n}; bounded at n <= 8."""
    if not 1 <= n <= 8:
        raise SizeLimitError("alternating group supported for 1 <= n <= 8")
    perms = [p for p in _iter_permutations(range(n)) if parity(p) == 0]
    return _group_from_permutations(np.array(perms, dtype=np.uint8), f"A{n}")


def _normal_form_group(
    na: int,
    twist: int,
    square: int,
    gen_a_label: str,
    gen_b_label: str,
    family_tag: str,
) -> GroupTable:
    """Group on normal forms a^i b^j (0 <= i < na, j in {0,1}).

    Index = i + na*j.  The relations are a^na = e, b a = a^twist b and
    b^2 = a^square, with twist^2 = 1 mod na.
    """
    total = 2 * na
    if total > CLOSURE_LIMIT:
        raise SizeLimitError(f"group order {total} exceeds {CLOSURE_LIMIT}")

    def label(i: int, j: int) -> str:
        ai = "" if i == 0 else (gen_a_label if i == 1 else f"{gen_a_label}{i}")
        bj = "" if j == 0 else gen_b_label
        return (ai + bj) or "e"

    labels = [label(i, j) for j in (0, 1) for i in range(na)]
    # (a^i b)^-1 = a^(-twist*(i+square)) b, since twist^2 = 1
    inv = [(-i) % na for i in range(na)]
    inv += [(-twist * (i + square)) % na + na for i in range(na)]
    designated = {gen_a_label: 1, gen_b_label: na}

    def rule(x, y):
        i1, j1 = x % na, x // na
        i2, j2 = y % na, y // na
        i3 = (i1 + (1 + j1 * (twist - 1)) * i2 + square * j1 * j2) % na
        return i3 + na * ((j1 + j2) % 2)

    return GroupTable(
        total, rule=rule, inv=inv, identity=0, labels=labels,
        family_tag=family_tag, designated=designated,
    )


def make_dihedral(n: int) -> GroupTable:
    """D_2n = <r, s | r^n = s^2 = e, s r s = r^-1>, order 2n.

    Designated generators: ``r`` (order n), ``s`` (order 2) and the second
    reflection ``t`` = r*s used by the two-reflection generating set.
    """
    if n < 2:
        raise InvalidParameterError("dihedral parameter must be >= 2")
    g = _normal_form_group(n, -1, 0, "r", "s", f"D{2 * n}")
    g.designated["t"] = g.mul(g.designated["r"], g.designated["s"])
    return g


def make_generalized_quaternion(n: int) -> GroupTable:
    """Order-4n group <a, b | a^2n = e, b^2 = a^n, a b = b a^(2n-1)>."""
    if n < 2:
        raise InvalidParameterError("generalized quaternion parameter must be >= 2")
    return _normal_form_group(2 * n, -1, n, "a", "b", f"Q{4 * n}")


def make_semidihedral(k: int) -> GroupTable:
    """Order-8k group <a, b | a^4k = b^2 = e, b a = a^(2k-1) b>."""
    if k < 1:
        raise InvalidParameterError("semidihedral parameter must be >= 1")
    return _normal_form_group(4 * k, 2 * k - 1, 0, "a", "b", f"SD{8 * k}")


def closure_from_permutations(
    gens: Iterable[tuple[int, ...] | str],
    family_tag: Optional[str] = None,
) -> GroupTable:
    """Close a set of permutations under composition (BFS, capped).

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
    if any(len(p) != width for p in raw):
        raise InvalidParameterError("permutations act on different ground sets")
    if any(sorted(p) != list(range(width)) for p in raw):
        raise InvalidParameterError("generators must be permutations of 0..n-1")
    seen = {tuple(range(width))}
    frontier = [tuple(range(width))]
    gens_t = [tuple(p) for p in raw]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens_t:
                r = compose(q, p)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
                    if len(seen) > CLOSURE_LIMIT:
                        raise ClosureOverflowError(
                            f"closure exceeds {CLOSURE_LIMIT} elements"
                        )
        frontier = nxt
    perms = np.array(sorted(seen), dtype=np.min_scalar_type(width - 1))
    return _group_from_permutations(perms, family_tag=family_tag)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def element_order(g: GroupTable, x: int) -> int:
    """Smallest t >= 1 with x^t = identity."""
    cached = g._order_cache.get(x)
    if cached is not None:
        return cached
    acc = x
    t = 1
    while acc != g.identity:
        acc = g.mul(acc, x)
        t += 1
    assert g.order % t == 0, "element order must divide the group order"
    g._order_cache[x] = t
    return t


def element_orders(g: GroupTable) -> np.ndarray:
    """The order of every element, as an array indexed by element.

    For each divisor d of |G| in ascending order, it raises every element of
    unknown order to the power d at once (square and multiply over index
    arrays) and gives order d to those that reach the identity.
    """
    orders = np.zeros(g.order, dtype=np.intp)
    for d in range(1, g.order + 1):
        if g.order % d:
            continue
        todo = np.flatnonzero(orders == 0)
        if not todo.size:
            break
        power, base, e = np.full(todo.size, g.identity), todo, d
        while e:
            if e & 1:
                power = g.products(power, base)
            e >>= 1
            if e:
                base = g.products(base, base)
        orders[todo[power == g.identity]] = d
    return orders


def make_gen_sequence(g: GroupTable, elements: Sequence[int]) -> GenSequence:
    """Validate that ``elements`` generate ``g`` and cache their orders.

    Raises NotAGeneratingSetError when the closure of the elements and their
    inverses is a proper subgroup.
    """
    positions = tuple(int(x) for x in elements)
    if len(positions) < 1:
        raise InvalidParameterError("generating sequence must be non-empty")
    for x in positions:
        if not 0 <= x < g.order:
            raise InvalidParameterError(f"element index {x} out of range")
    if len(subgroup_closure(g, positions)) != g.order:
        raise NotAGeneratingSetError(
            "elements do not generate the group: "
            + ", ".join(g.labels[x] for x in positions)
        )
    return GenSequence(positions, tuple(element_order(g, x) for x in positions))


def subgroup_closure(
    g: GroupTable, elements: Sequence[int], cap: Optional[int] = None
) -> list[int]:
    """Sorted element indices of the subgroup generated by ``elements``.

    The closure is naturally bounded by |G|; pass ``cap`` to fail early when
    a quadratic structure is about to be built from the result.
    """
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

    Returns the subgroup (re-indexed densely) together with the map from
    parent element index to subgroup index.  Capped at :data:`CLOSURE_LIMIT`
    elements like every other constructor.
    """
    members = np.array(subgroup_closure(g, elements, cap=CLOSURE_LIMIT))
    to_sub = np.full(g.order, -1, dtype=np.intp)
    to_sub[members] = np.arange(len(members))

    def rule(a, b):
        return to_sub[g.products(members[a], members[b])]

    sub = GroupTable(
        len(members),
        rule=rule,
        inv=to_sub[[g.inv(x) for x in members]].tolist(),
        identity=int(to_sub[g.identity]),
        labels=[g.labels[x] for x in members],
        family_tag=None,
    )
    return sub, {x: i for i, x in enumerate(members.tolist())}


def right_cosets(g: GroupTable, s: int, gen_position: int = 0) -> list[Coset]:
    """All right cosets <s>x, ordered by their minimum element index.

    The cosets partition the group; there are exactly |G|/o(s) of them, each
    of size o(s).  The coset of x is the orbit x, sx, s^2 x, ... of left
    multiplication by s.
    """
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
        out.append(Coset(gen_position, tuple(members)))
    return out


def conjugacy_classes(
    g: GroupTable, among: Optional[Iterable[int]] = None
) -> list[list[int]]:
    """Conjugacy classes, each sorted, ordered by their minimum element.

    With ``among``, a union of classes (say every element of one order),
    only the classes inside it.
    """
    every = np.arange(g.order)
    inverses = np.array(g._inv)
    seen = np.zeros(g.order, dtype=bool)
    classes = []
    for x in range(g.order) if among is None else sorted(among):
        if seen[x]:
            continue
        members = np.zeros(g.order, dtype=bool)
        members[g.products(g.products(every, x), inverses)] = True
        seen |= members
        classes.append(np.flatnonzero(members).tolist())
    return classes
