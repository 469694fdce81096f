import math
import random
import time
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from ggraphs import (
    ClosureOverflowError,
    GroupTable,
    InvalidParameterError,
    NotAGeneratingSetError,
    SizeLimitError,
    closure_from_permutations,
    element_order,
    make_alternating,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_gen_sequence,
    make_generalized_quaternion,
    make_klein,
    make_semidihedral,
    make_symmetric,
    make_trivial,
    right_cosets,
)
from ggraphs.groups import (
    CLOSURE_LIMIT,
    TABLE_LIMIT,
    _assoc_sample,
    _longest_orbit,
    _stabilizer_chain,
    conjugacy_classes,
    cycle_notation,
    parse_cycles,
    subgroup_closure,
    subgroup_table,
)
from ggraphs.multigraph import VERTEX_LIMIT


# reference permutation arithmetic on images tuples over a 0-based ground set


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


def power(g, x: int, k: int) -> int:
    """x to the k >= 0 in g, by repeated multiplication."""
    acc = g.identity
    for _ in range(k):
        acc = g.mul(acc, x)
    return acc


def test_cyclic_basics():
    g = make_cyclic(6)
    assert g.order == 6
    assert element_order(g, g.index_of_label("2")) == 3
    assert element_order(g, g.index_of_label("3")) == 2
    z4 = make_cyclic(4)
    assert element_order(z4, z4.index_of_label("1")) == 4
    assert make_cyclic(1).order == 1
    with pytest.raises(InvalidParameterError):
        make_cyclic(0)


def test_cyclic_order_is_capped_like_the_other_families():
    assert make_cyclic(CLOSURE_LIMIT).order == CLOSURE_LIMIT
    with pytest.raises(SizeLimitError):
        make_cyclic(CLOSURE_LIMIT + 1)


def test_direct_product_orders():
    z3z3 = make_direct_product(make_cyclic(3), make_cyclic(3))
    assert z3z3.order == 9
    assert element_order(z3z3, z3z3.index_of_label("(1,1)")) == 3
    klein = make_direct_product(make_cyclic(2), make_cyclic(2))
    assert klein.order == 4
    assert all(element_order(klein, x) == 2 for x in range(1, 4))
    # G x trivial keeps the order spectrum
    g = make_cyclic(5)
    prod = make_direct_product(g, make_trivial())
    assert prod.order == g.order
    assert sorted(element_order(prod, x) for x in range(prod.order)) == sorted(
        element_order(g, x) for x in range(g.order)
    )


def test_symmetric_and_alternating():
    assert make_symmetric(3).order == 6
    assert make_alternating(4).order == 12
    assert make_symmetric(1).order == 1
    s4 = make_symmetric(4)
    assert element_order(s4, s4.index_of_label("(123)")) == 3
    with pytest.raises(SizeLimitError):
        make_symmetric(9)
    with pytest.raises(SizeLimitError):
        make_alternating(0)


def test_dihedral():
    d10 = make_dihedral(5)
    assert d10.order == 10
    assert element_order(d10, d10.designated["r"]) == 5
    assert element_order(d10, d10.designated["s"]) == 2
    d8 = make_dihedral(4)
    assert element_order(d8, d8.designated["s"]) == 2
    assert element_order(d8, d8.designated["t"]) == 2
    # degenerate case: Klein group
    d4 = make_dihedral(2)
    assert d4.order == 4
    assert all(element_order(d4, x) == 2 for x in range(1, 4))
    with pytest.raises(InvalidParameterError):
        make_dihedral(1)


def test_dihedral_presentation_relations():
    for n in (3, 4, 5, 8):
        g = make_dihedral(n)
        r, s = g.designated["r"], g.designated["s"]
        assert power(g, r, n) == g.identity
        assert g.mul(s, s) == g.identity
        # s r s = r^(n-1)
        assert g.mul(g.mul(s, r), s) == power(g, r, n - 1)


def test_generalized_quaternion():
    q = make_generalized_quaternion(2)
    a, b = q.designated["a"], q.designated["b"]
    assert q.order == 8
    assert element_order(q, a) == 4
    assert element_order(q, b) == 4
    assert q.mul(b, b) == q.mul(a, a)  # shared central element

    q3 = make_generalized_quaternion(3)
    a, b = q3.designated["a"], q3.designated["b"]
    assert q3.order == 12
    assert element_order(q3, a) == 6
    assert element_order(q3, b) == 4
    with pytest.raises(InvalidParameterError):
        make_generalized_quaternion(1)


def test_generalized_quaternion_relations():
    for n in (2, 3, 4):
        g = make_generalized_quaternion(n)
        a, b = g.designated["a"], g.designated["b"]
        assert power(g, a, 2 * n) == g.identity
        assert g.mul(b, b) == power(g, a, n)
        # a b = b a^(2n-1)
        assert g.mul(a, b) == g.mul(b, power(g, a, 2 * n - 1))


def test_semidihedral():
    sd16 = make_semidihedral(2)
    a, b = sd16.designated["a"], sd16.designated["b"]
    assert sd16.order == 16
    assert element_order(sd16, a) == 8
    sd8 = make_semidihedral(1)
    assert sd8.order == 8
    assert element_order(sd8, sd8.designated["a"]) == 4
    # b a = a^(2k-1) b, with 2k-1 = 3 at k=2
    assert sd16.labels[sd16.mul(b, a)] == "a3b"
    with pytest.raises(InvalidParameterError):
        make_semidihedral(0)


def test_semidihedral_relations():
    for k in (1, 2, 3):
        g = make_semidihedral(k)
        a, b = g.designated["a"], g.designated["b"]
        assert power(g, a, 4 * k) == g.identity
        assert g.mul(b, b) == g.identity
        assert g.mul(b, a) == g.mul(power(g, a, 2 * k - 1), b)


def test_closure_from_permutations():
    assert closure_from_permutations(["(12)", "(123)"]).order == 6
    assert closure_from_permutations(["e"]).order == 1
    a4 = closure_from_permutations(["(123)", "(124)"])
    assert a4.order == 12
    with pytest.raises(ClosureOverflowError):
        # S8 has 40320 elements, beyond the closure cap
        closure_from_permutations(["(12)", "(12345678)"])


@pytest.mark.parametrize(
    "text, point",
    [
        ("(1 2)(2 1)", 2),
        ("(12)(21)", 2),
        ("(1 2)(1 3)", 1),
        ("(1 2 3)(3 2 1)", 3),
        ("(1 2 1)", 1),
        ("(0 1)", 0),
    ],
)
def test_parse_cycles_refuses_non_permutations(text, point):
    with pytest.raises(InvalidParameterError, match=rf"^point {point} "):
        parse_cycles(text)


def test_closure_on_zero_points_is_refused():
    with pytest.raises(InvalidParameterError, match="zero points"):
        closure_from_permutations([()])
    # the trivial group on one or two points still builds
    for g in (
        closure_from_permutations(["e"]),
        make_symmetric(1),
        make_alternating(1),
        make_alternating(2),
    ):
        assert (g.order, g.labels, g.identity, g.inv(0)) == (1, ("e",), 0, 0)


def test_element_order_basics():
    s4 = make_symmetric(4)
    assert element_order(s4, s4.identity) == 1
    assert element_order(s4, s4.index_of_label("(123)")) == 3
    sd16 = make_semidihedral(2)
    assert element_order(sd16, sd16.designated["a"]) == 8


@pytest.mark.parametrize("x", [-1, 6, 2**40], ids=["negative", "order", "huge"])
def test_element_indices_are_range_checked(x):
    # numpy would wrap -1 to the last element and refuse 6 with a bare IndexError;
    # mul(0, 6) would read row 1 of the flat table
    s3 = make_symmetric(3)
    for call in (
        element_order, right_cosets, GroupTable.inv,
        lambda g, y: g.mul(0, y), lambda g, y: g.mul(y, 0),
        lambda g, y: subgroup_closure(g, [0, y]), lambda g, y: conjugacy_classes(g, [0, y]),
    ):
        with pytest.raises(InvalidParameterError, match=f"element index {x} out of range"):
            call(s3, x)
    with pytest.raises(InvalidParameterError, match=f"element index {x} out of range"):
        make_gen_sequence(s3, [1, x])


def test_element_orders_divide_group_order():
    for g in (
        make_symmetric(4),
        make_dihedral(6),
        make_generalized_quaternion(3),
        make_semidihedral(2),
    ):
        for x in range(g.order):
            assert g.order % element_order(g, x) == 0


def test_right_cosets_s3_listing():
    s3 = make_symmetric(3)
    cosets = right_cosets(s3, s3.index_of_label("(12)"))
    as_labels = {frozenset(s3.labels[e] for e in c.elements) for c in cosets}
    assert as_labels == {
        frozenset({"e", "(12)"}),
        frozenset({"(13)", "(132)"}),
        frozenset({"(23)", "(123)"}),
    }


def test_right_cosets_partition_properties():
    cases = [
        (make_symmetric(4), None),
        (make_semidihedral(2), None),
        (make_dihedral(5), None),
        (make_generalized_quaternion(3), None),
    ]
    for g, _ in cases:
        for s in range(g.order):
            cosets = right_cosets(g, s)
            o = element_order(g, s)
            assert len(cosets) * o == g.order
            union = [e for c in cosets for e in c.elements]
            assert sorted(union) == list(range(g.order))
            assert all(len(c.elements) == o for c in cosets)


def test_right_cosets_identity_and_sd16():
    g = make_dihedral(4)
    singletons = right_cosets(g, g.identity)
    assert len(singletons) == g.order
    sd16 = make_semidihedral(2)
    big = right_cosets(sd16, sd16.designated["a"])
    assert len(big) == 2
    assert all(len(c.elements) == 8 for c in big)


def test_gen_sequence_validation():
    z6 = make_cyclic(6)
    seq = make_gen_sequence(z6, [z6.index_of_label("2"), z6.index_of_label("3")])
    assert seq.orders == (3, 2)
    with pytest.raises(NotAGeneratingSetError):
        make_gen_sequence(z6, [z6.index_of_label("2")])
    # repeats allowed
    triv = make_trivial()
    assert len(make_gen_sequence(triv, [0, 0, 0])) == 3


def test_group_axioms_hold_on_families():
    # construction itself validates; re-run a spot check through mul
    for g in (make_klein(), make_cyclic(7), make_dihedral(3)):
        for a in range(g.order):
            assert g.mul(g.identity, a) == a
            assert g.mul(a, g.inv(a)) == g.identity


def test_large_symmetric_group_is_rule_backed():
    s7 = make_symmetric(7)
    assert s7.order == 5040
    x = s7.index_of_label("(12)")
    y = s7.index_of_label("(1234567)")
    assert element_order(s7, y) == 7
    assert s7.mul(x, s7.inv(x)) == s7.identity


# -- validation rejects what is not a group ----------------------------------

# A loop of order 5: a Latin square with identity 0 in which every element
# is its own inverse.  No group of order 5 has that, so it is not associative.
_LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _corrupted_cyclic(n):
    """Z_n's table with one product changed; the identity row and column, and
    every product that equals the identity, are left intact."""
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    table[2, 3] = 6
    return table


@pytest.mark.parametrize(
    "order, table, labels, message",
    [
        (5, _LOOP5, "01234", "associativity fails"),
        # a Latin square with no identity: 0*x = x+1
        (5, [[(a + b + 1) % 5 for b in range(5)] for a in range(5)], "01234",
         "identity law fails"),
        (4, [[a ^ b for b in range(4)] for a in range(4)], "eabb",
         "labels must be pairwise distinct"),
        # above the exhaustive bound, so only the seeded samples can see it
        (72, _corrupted_cyclic(72), [str(i) for i in range(72)],
         "associativity fails"),
    ],
    ids=["non-associative-loop", "no-identity", "duplicate-labels", "sampled-associativity"],
)
def test_validation_rejects(order, table, labels, message):
    with pytest.raises(InvalidParameterError, match=message):
        GroupTable(order, table=np.array(table), labels=list(labels))


def test_associativity_sample_is_drawn_once_and_read_only():
    rng = random.Random(0)
    drawn = b"".join(rng.randbytes(12 * 10_000) for _ in range(10))
    words = _assoc_sample()
    assert words.shape == (10, 3, 10_000)
    assert words.tobytes() == drawn
    assert _assoc_sample() is words
    with pytest.raises(ValueError):
        words[0, 0, 0] = 1


def test_validation_accepts_the_uncorrupted_table():
    n = 72
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    assert GroupTable(n, table=table, labels=[str(i) for i in range(n)]).inv(5) == 67


# -- tables equal a scalar reference, bit for bit -----------------------------


def _table(g):
    every = np.arange(g.order)
    return g.products(every[:, None], every[None, :]).tolist()


def _check_permutation_group(g, perms):
    """``perms`` sorted; reference products by compose in a loop."""
    index = {p: i for i, p in enumerate(perms)}
    assert _table(g) == [[index[compose(p, q)] for q in perms] for p in perms]
    assert list(g.labels) == [cycle_notation(p) for p in perms]
    assert g.identity == index[tuple(range(len(perms[0])))]
    inverse = [index[tuple(int(i) for i in np.argsort(p))] for p in perms]
    assert [g.inv(x) for x in range(g.order)] == inverse


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_table_matches_compose(n):
    _check_permutation_group(make_symmetric(n), list(permutations(range(n))))


@pytest.mark.parametrize("n", [4, 5])
def test_alternating_table_matches_compose(n):
    perms = [p for p in permutations(range(n)) if parity(p) == 0]
    _check_permutation_group(make_alternating(n), perms)


def test_closure_table_matches_compose():
    g = closure_from_permutations(["(12)(34)", "(1 2 3)", "(5 6)"])
    perms = sorted(parse_cycles(label, 6) for label in g.labels)
    assert g.order == 24
    _check_permutation_group(g, perms)


def _check_sampled_products(g, perms, samples):
    """``perms`` sorted; ``samples`` seeded products, every inverse and the
    identity against ``compose`` and ``np.argsort``."""
    index = {p: i for i, p in enumerate(perms)}
    rng = np.random.default_rng(3)
    a, b = rng.integers(0, g.order, (2, samples))
    assert g.products(a, b).tolist() == [
        index[compose(perms[x], perms[y])] for x, y in zip(a.tolist(), b.tolist())
    ]
    assert [g.inv(x) for x in range(g.order)] == [
        index[tuple(np.argsort(p).tolist())] for p in perms
    ]
    assert g.identity == index[tuple(range(len(perms[0])))]


def _swap_closure(swaps, d):
    """The sorted elements of the group that disjoint transpositions, in
    cycle notation, generate on ``d`` points."""
    perms = {tuple(range(d))}
    for swap in swaps:
        perms |= {compose(parse_cycles(swap, d), p) for p in perms}
    return sorted(perms)


# (1 2), (3 4), ..., (23 24) and (39 40): order 8192, a chain of 13 levels
_ELEMENTARY = [f"({i} {i + 1})" for i in range(1, 24, 2)] + ["(39 40)"]


@pytest.mark.parametrize(
    "make, perms",
    [
        (lambda: make_symmetric(7), lambda: list(permutations(range(7)))),
        # S7 as the construct benchmark builds it
        (lambda: closure_from_permutations(["(1 2)", "(1 2 3 4 5 6 7)"]),
         lambda: list(permutations(range(7)))),
        (lambda: make_alternating(7),
         lambda: [p for p in permutations(range(7)) if parity(p) == 0]),
        (lambda: closure_from_permutations(_ELEMENTARY),
         lambda: _swap_closure(_ELEMENTARY, 40)),
    ],
    ids=["sym7", "closure-sym7", "alt7", "elementary-8192"],
)
def test_rule_backed_permutation_group_matches_compose(make, perms):
    g, perms = make(), perms()
    assert g.order > TABLE_LIMIT
    _check_sampled_products(g, perms, 100_000)


# Seven disjoint transpositions and (254 255): order 256 on 255 points.  Its
# chain has eight levels, one per transposition, whose base points' images
# would not fit in 64 bits as one base-255 key (255 ** 8).
_WIDE = [f"({i} {i + 1})" for i in range(1, 14, 2)] + ["(254 255)"]


def test_wide_permutation_group_matches_compose():
    g = closure_from_permutations(_WIDE)
    perms = _swap_closure(_WIDE, 255)
    assert g.order == 256
    _check_permutation_group(g, perms)
    # points past 9 are spaced, so every label reads back
    assert "(254 255)" in g.labels
    assert [parse_cycles(label, 255) for label in g.labels] == perms


def _bfs_closure(gens, cap):
    """The closure of ``gens`` by breadth-first search over compose, or None
    past ``cap`` elements: the reference the stabilizer chain replaced."""
    identity = tuple(range(len(gens[0])))
    seen, frontier = {identity}, [identity]
    while frontier:
        fresh = []
        for p in frontier:
            for q in gens:
                r = compose(q, p)
                if r not in seen:
                    seen.add(r)
                    fresh.append(r)
                    if len(seen) > cap:
                        return None
        frontier = fresh
    return sorted(seen)


def _random_generators(seed):
    """One to three permutations of d = 2 + seed % 11 points, each a product
    of one or two random cycles, the first through the last point: so that
    points 10 to 12 move, and the groups range from Z2 to past the cap."""
    rng = random.Random(seed)
    d = 2 + seed % 11
    gens = []
    for _ in range(rng.randint(1, 3)):
        p = tuple(range(d))
        for _ in range(rng.randint(1, 2)):
            points = rng.sample(range(d - 1), rng.randint(1, min(d - 1, 5)))
            cycle = list(range(d))
            for a, b in zip([d - 1] + points, points + [d - 1]):
                cycle[a] = b
            p = compose(tuple(cycle), p)
        gens.append(p)
    return gens


@pytest.mark.parametrize("seed", range(44))
def test_chain_lists_the_bfs_closure(seed):
    gens = _random_generators(seed)
    expected = _bfs_closure(gens, CLOSURE_LIMIT)
    if expected is None:
        with pytest.raises(ClosureOverflowError):
            closure_from_permutations(gens)
        return
    g = closure_from_permutations(gens)
    d = len(gens[0])
    assert [parse_cycles(label, d) for label in g.labels] == expected
    if g.order <= 200:
        _check_permutation_group(g, expected)
    _check_sampled_products(g, expected, 10_000)
    chain = _stabilizer_chain(np.array(gens))
    assert math.prod(len(level.orbit) for level in chain) == len(expected)


def test_closure_cap_is_decided_before_listing():
    # S_255 from (1 2) and (1 2 ... 255): the chain's first two orbits
    # already pass the cap, so no element is listed
    start = time.perf_counter()
    with pytest.raises(ClosureOverflowError, match="closure exceeds 10000 elements"):
        closure_from_permutations(["(1 2)", "(" + " ".join(map(str, range(1, 256))) + ")"])
    assert time.perf_counter() - start < 1.0


def test_closure_refuses_an_orbit_past_the_cap_before_storing_a_map():
    # Z_10001 on 10,001 points: a chain would store two 10,001-point rows
    # per orbit point, about 400 MB, before its orbit length passed the cap
    cycle = "(" + " ".join(map(str, range(1, CLOSURE_LIMIT + 2))) + ")"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ClosureOverflowError, match="closure exceeds 10000 elements"):
            closure_from_permutations([cycle])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 4 << 20


def test_longest_orbit():
    gens = np.array([parse_cycles("(1 2)(4 5 6)", 7), parse_cycles("(2 3)", 7)])
    assert _longest_orbit(gens) == 3
    assert _longest_orbit(np.arange(4)[None, :]) == 1


def test_parse_cycles_refuses_a_point_past_the_vertex_bound():
    assert len(parse_cycles(f"(1 {VERTEX_LIMIT})")) == VERTEX_LIMIT
    for text in (f"(1 {VERTEX_LIMIT + 1})", "(1 99999999999)"):
        with pytest.raises(InvalidParameterError, match=f"exceeds {VERTEX_LIMIT}"):
            parse_cycles(text)


def test_group_with_large_base_tables_builds():
    # <(1 .. 725)(726 .. 2175)> has order 1450 on 2175 points.  Its chain's
    # base points are 1 and 726, with orbits of 725 and 2 points, so its
    # level tables hold 2175 + 725 * 2175 cells, more than one 1024 x 1024
    # table.  Fewer than its 1450 x 2175 images, so no bound may refuse it.
    cycles = [range(1, 726), range(726, 2176)]
    g = closure_from_permutations(
        ["".join("(" + " ".join(map(str, c)) + ")" for c in cycles)]
    )
    assert g.order == 1450
    # the rows of g^i sort by (i mod 725, i)
    power = np.arange(1450)
    index = 2 * (power % 725) + power // 725
    assert g.products(index[:, None], index[None, :]).tolist() == (
        index[(power[:, None] + power[None, :]) % 1450].tolist()
    )
    assert [g.inv(x) for x in index.tolist()] == index[-power % 1450].tolist()
    assert g.identity == 0


def _dihedral_rule(n):
    def rule(i1, j1, i2, j2):
        if j1 == 0:
            return (i1 + i2) % n, j2
        return (i1 - i2) % n, (j1 + j2) % 2
    return n, rule


def _quaternion_rule(n):
    m = 2 * n

    def rule(i1, j1, i2, j2):
        if j1 == 0:
            return (i1 + i2) % m, j2
        i = (i1 - i2) % m
        return (i, 1) if j2 == 0 else ((i + n) % m, 0)
    return m, rule


def _semidihedral_rule(k):
    m, twist = 4 * k, 2 * k - 1

    def rule(i1, j1, i2, j2):
        if j1 == 0:
            return (i1 + i2) % m, j2
        return (i1 + twist * i2) % m, (j1 + j2) % 2
    return m, rule


@pytest.mark.parametrize(
    "make, reference, param",
    [(make_dihedral, _dihedral_rule, n) for n in (2, 3, 4, 5, 8)]
    + [(make_generalized_quaternion, _quaternion_rule, n) for n in (2, 3, 4)]
    + [(make_semidihedral, _semidihedral_rule, k) for k in (1, 2, 3)],
)
def test_normal_form_table_matches_presentation(make, reference, param):
    g = make(param)
    na, rule = reference(param)
    expected = []
    for x in range(2 * na):
        row = []
        for y in range(2 * na):
            i3, j3 = rule(x % na, x // na, y % na, y // na)
            row.append(i3 + na * j3)
        expected.append(row)
    assert _table(g) == expected
    assert g.identity == 0
    assert [expected[x][g.inv(x)] for x in range(g.order)] == [0] * g.order


def test_direct_product_table_matches_componentwise():
    g, h = make_symmetric(3), make_cyclic(4)
    prod = make_direct_product(g, h)
    m = h.order
    expected = [
        [g.mul(a // m, b // m) * m + h.mul(a % m, b % m) for b in range(prod.order)]
        for a in range(prod.order)
    ]
    assert _table(prod) == expected
    assert list(prod.labels) == [f"({x},{y})" for x in g.labels for y in h.labels]
    assert [prod.inv(x) for x in range(prod.order)] == [
        g.inv(x // m) * m + h.inv(x % m) for x in range(prod.order)
    ]


def _conjugacy_reference(g):
    seen, classes = set(), []
    for x in range(g.order):
        if x not in seen:
            orbit = {g.mul(t, g.mul(x, g.inv(t))) for t in range(g.order)}
            seen |= orbit
            classes.append(sorted(orbit))
    return classes


CLASS_GROUPS = [
    make_symmetric(4), make_alternating(5), make_dihedral(5),
    make_generalized_quaternion(3), make_semidihedral(2),
    make_direct_product(make_symmetric(3), make_cyclic(2)),
]


@pytest.mark.parametrize("g", CLASS_GROUPS, ids=repr)
def test_conjugacy_classes_match_scalar_reference(g):
    classes = _conjugacy_reference(g)
    assert conjugacy_classes(g) == classes
    for o in {element_order(g, x) for x in range(g.order)}:
        of_order = [x for x in range(g.order) if element_order(g, x) == o]
        assert conjugacy_classes(g, of_order[::-1]) == [
            cls for cls in classes if element_order(g, cls[0]) == o
        ]


_S5 = make_symmetric(5)
# one group from each constructor, each of which once wrote its own inverses
REFERENCE_GROUPS = CLASS_GROUPS + [
    make_cyclic(10000), make_cyclic(7), make_trivial(), make_klein(), make_dihedral(4),
    make_generalized_quaternion(2), make_direct_product(make_cyclic(3), make_klein()),
    # a dihedral group of order 10 inside S5
    subgroup_table(_S5, [_S5.index_of_label("(12345)"), _S5.index_of_label("(25)(34)")])[0],
    make_symmetric(7), make_alternating(4),
    closure_from_permutations(["(12)(34)", "(1 2 3)", "(5 6)"]),
]


@pytest.mark.parametrize("g", REFERENCE_GROUPS, ids=repr)
def test_element_orders_match_scalar_reference(g):
    """Inverses and orders, which construction derives, against brute force."""
    orders = g.orders.tolist()
    inverses = [g.inv(x) for x in range(g.order)]
    if g.order == 10000:
        # the order of i in Z10000 is 10000 / gcd(i, 10000), its inverse -i
        assert orders == [10000 // math.gcd(i, 10000) for i in range(10000)]
        assert inverses == [-i % 10000 for i in range(10000)]
        return
    every = np.arange(g.order)
    for x in range(g.order):
        assert np.flatnonzero(g.products(x, every) == g.identity).tolist() == [inverses[x]]
        power, t = x, 1
        while power != g.identity:
            power, t = g.mul(power, x), t + 1
        assert orders[x] == t == element_order(g, x)
