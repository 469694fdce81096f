"""Generation tests, coset enumeration and edge multiplicities against
independent oracles.

* ``make_gen_sequence`` accepts exactly the element lists whose
  breadth-first closure (``subgroup_closure``) is the whole group, and
  refuses the others with the same message.
* ``right_cosets`` equals the orbit walk x, sx, s^2 x, ... of every element.
* ``build_ggraph`` equals the construction that counts every element
  between its cosets, and every edge between classes i and j has
  multiplicity |<s_i> & <s_j>| (fact (a) of the paper's coset graphs).

Hypothesis is not a declared dependency; without it this module is skipped.
"""

import math

import pytest

import fixture_catalog as cat
from ggraphs import (
    Coset,
    InvalidParameterError,
    NotAGeneratingSetError,
    build_ggraph,
    closure_from_permutations,
    make_dihedral,
    make_gen_sequence,
    right_cosets,
)
from ggraphs.groups import subgroup_closure

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _catalog_groups():
    groups = {}
    for name in cat.CATALOG_NAMES:
        group = cat.fixture(name)[0]
        groups[id(group)] = group
    return list(groups.values())


# S7 (5040 elements) is past the table bound, so it multiplies by its rule
GROUPS = _catalog_groups() + [closure_from_permutations(["(1 2)", "(1 2 3 4 5 6 7)"])]


def _generates_by_closure(g, elements):
    return len(subgroup_closure(g, elements)) == g.order


def _orbit_cosets(g, s):
    """The right cosets <s>x as orbits of x -> s*x, by minimum element."""
    seen = set()
    cosets = []
    for x in range(g.order):
        if x in seen:
            continue
        members = [x]
        y = g.mul(s, x)
        while y != x:
            members.append(y)
            y = g.mul(s, y)
        seen.update(members)
        cosets.append(Coset(tuple(sorted(members))))
    return cosets


def _counted_edges(g, positions):
    """The edges of the coset graph, each element counted once between its
    coset in class i and its coset in class j, for every i < j."""
    vertex_of = []
    start = 0
    for s in positions:
        where = {}
        for v, coset in enumerate(_orbit_cosets(g, s), start=start):
            where.update(dict.fromkeys(coset.elements, v))
            start += 1
        vertex_of.append(where)
    mult = {}
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            for x in range(g.order):
                key = vertex_of[i][x], vertex_of[j][x]
                mult[key] = mult.get(key, 0) + 1
    return tuple(sorted((u, v, m) for (u, v), m in mult.items()))


@st.composite
def element_lists(draw):
    """A group and a non-empty list of its elements, with identities,
    repeats and inverse pairs mixed in."""
    g = draw(st.sampled_from(GROUPS))
    elements = draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=4))
    for kind in draw(st.lists(st.sampled_from(["identity", "repeat", "inverse"]), max_size=3)):
        x = draw(st.sampled_from(elements))
        elements.append({"identity": g.identity, "repeat": x, "inverse": g.inv(x)}[kind])
    return g, draw(st.permutations(elements))


@PROPERTY
@given(element_lists())
def test_generation_matches_closure(case):
    g, elements = case
    if _generates_by_closure(g, elements):
        seq = make_gen_sequence(g, elements)
        assert seq.positions == tuple(elements)
        assert seq.orders == tuple(int(g.orders[x]) for x in elements)
        assert seq.group is g
    else:
        expected = "elements do not generate the group: " + ", ".join(
            g.labels[x] for x in elements)
        with pytest.raises(NotAGeneratingSetError) as info:
            make_gen_sequence(g, elements)
        assert str(info.value) == expected


@pytest.mark.parametrize("group", GROUPS[:3] + GROUPS[-1:], ids=repr)
def test_generation_refuses_indices_as_closure_does(group):
    for bad in (-1, group.order):
        with pytest.raises(InvalidParameterError) as by_closure:
            subgroup_closure(group, [0, bad])
        with pytest.raises(InvalidParameterError) as by_generation:
            make_gen_sequence(group, [0, bad])
        assert str(by_generation.value) == str(by_closure.value)


def test_generation_on_long_cycles():
    # on two reflections the Cayley graph of a dihedral group is one cycle
    # of 2n elements; s and r^k s, elements n and n + k, generate it iff
    # gcd(k, n) = 1
    n = 60
    d = make_dihedral(n)
    for k in range(1, n):
        elements = [n, n + k]
        assert _generates_by_closure(d, elements) == (math.gcd(k, n) == 1)
        if math.gcd(k, n) == 1:
            assert make_gen_sequence(d, elements).orders == (2, 2)
        else:
            with pytest.raises(NotAGeneratingSetError):
                make_gen_sequence(d, elements)


@pytest.mark.parametrize("group", GROUPS, ids=repr)
def test_right_cosets_match_orbit_walk(group):
    for s in range(group.order) if group.order <= 120 else range(0, group.order, 97):
        assert right_cosets(group, s) == _orbit_cosets(group, s)


def _check_graph(g, seq):
    gg = build_ggraph(g, seq)
    assert gg.partitions == tuple(tuple(_orbit_cosets(g, s)) for s in seq.positions)
    assert gg.edges == _counted_edges(g, seq.positions)
    # fact (a): one multiplicity per class pair, |<s_i> & <s_j>|
    cyclic = [set(subgroup_closure(g, [s])) for s in seq.positions]
    offsets = gg.class_offsets
    for u, v, m in gg.edges:
        i = next(c for c in range(gg.k) if offsets[c] <= u < offsets[c + 1])
        j = next(c for c in range(gg.k) if offsets[c] <= v < offsets[c + 1])
        assert m == len(cyclic[i] & cyclic[j])


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_catalog_graphs_match_counting(name):
    group, seq, _ = cat.fixture(name)
    _check_graph(group, seq)


@settings(PROPERTY, max_examples=60)
@given(element_lists())
def test_drawn_graphs_match_counting(case):
    g, elements = case
    if g.order > 120 or not _generates_by_closure(g, elements):
        return
    _check_graph(g, make_gen_sequence(g, elements))
