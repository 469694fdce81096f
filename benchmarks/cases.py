"""Named (group, generators) inputs, with orders worked out by the oracles."""

from __future__ import annotations

from dataclasses import dataclass

import oracles


@dataclass(frozen=True)
class Case:
    spec: str  # the group spec as the CLI spells it
    maker: str  # the ggraphs constructor
    arg: int | None
    gens: tuple[str, ...]  # cycle strings, or designated names
    order: int  # |G| by the benchmark's own arithmetic
    orders: tuple[int, ...]  # generator orders, likewise

    @property
    def name(self) -> str:
        return f"{self.spec} {','.join(self.gens)}"


def perm(spec, maker, arg, order, gens) -> Case:
    return Case(spec, maker, arg, tuple(gens), order,
                tuple(oracles.perm_order(x) for x in gens))


def normal_form(spec, maker, arg, family, gens) -> Case:
    orders = tuple(family.element_order(oracles.named_element(family, x)) for x in gens)
    return Case(spec, maker, arg, tuple(gens), family.order, orders)


# Z2 x Z2 on its three involutions: the octahedron.
KLEIN = Case("klein", "make_klein", None, ("a", "b", "ab"), 4, (2, 2, 2))


def make_group(ggraphs, case, tracer):
    make = getattr(ggraphs, case.maker)
    g = tracer.call("groups", make) if case.arg is None else tracer.call("groups", make, case.arg)
    tracer.count("groups.calls")
    tracer.count("groups.elements", g.order)
    return g


def resolve(g, token) -> int:
    if token in g.designated:
        return g.designated[token]
    return g.index_of_label(oracles.perm_label(token))


def build(ggraphs, case, tracer):
    g = make_group(ggraphs, case, tracer)
    return tracer.call("ggraph", ggraphs.build_ggraph, g, [resolve(g, x) for x in case.gens])
