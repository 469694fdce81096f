import hashlib

import pytest

from ggraphs import (
    INFINITE,
    AffElem,
    InvalidParameterError,
    Mat2Z,
    SizeLimitError,
    affine_ball,
    is_locally_finite,
    sl2z_ball,
)
from ggraphs.io import document_from_ball, dumps


def test_mat2z_product_and_det():
    s1 = Mat2Z(0, -1, 1, 0)
    x = Mat2Z(0, -1, 1, 1)
    assert (s1 * x).det() == 1
    # orders of the fixed generators
    acc, identity = s1, Mat2Z(1, 0, 0, 1)
    count = 1
    while acc != identity:
        acc = acc * s1
        count += 1
    assert count == 4
    acc, count = x, 1
    while acc != identity:
        acc = acc * x
        count += 1
    assert count == 6


def test_affelem_validates_sign():
    with pytest.raises(InvalidParameterError):
        AffElem(2, 0)


def test_sl2z_radius0():
    ball = sl2z_ball(0)
    assert ball.vertex_count == 2
    assert ball.edges == [(0, 1, 2)]  # the identity cosets share {I, -I}
    assert all(not v.interior for v in ball.vertices)


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_sl2z_interior_degrees(radius):
    ball = sl2z_ball(radius)
    degrees = ball.weighted_degrees()
    neighbor_count = [0] * ball.vertex_count
    for u, v, _ in ball.edges:
        neighbor_count[u] += 1
        neighbor_count[v] += 1
    for i, vert in enumerate(ball.vertices):
        if not vert.interior:
            continue
        if vert.class_id == 0:
            assert degrees[i] == 4 and neighbor_count[i] == 2
        else:
            assert degrees[i] == 6 and neighbor_count[i] == 3


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_sl2z_cosets_and_intersections(radius):
    ball = sl2z_ball(radius)
    for vert in ball.vertices:
        expected = 4 if vert.class_id == 0 else 6
        assert len(set(vert.elements)) == expected
        for a, b, c, d in vert.elements:
            assert a * d - b * c == 1
    for u, v, m in ball.edges:
        assert m == 2
        shared = set(ball.vertices[u].elements) & set(ball.vertices[v].elements)
        assert len(shared) == 2


def test_sl2z_radius_bound():
    with pytest.raises(SizeLimitError):
        sl2z_ball(13)
    with pytest.raises(SizeLimitError):
        sl2z_ball(-1)


def test_affine_radius0():
    ball = affine_ball(0)
    assert ball.vertex_count == 2
    assert ball.edges == [(0, 1, 1)]
    keys = [set(v.elements) for v in ball.vertices]
    assert {(1, 0), (-1, 0)} in keys   # <s0>e
    assert {(1, 0), (-1, -1)} in keys  # <s2>e


@pytest.mark.parametrize("radius", list(range(0, 51, 5)) + [1, 2, 3])
def test_affine_ball_is_a_path(radius):
    ball = affine_ball(radius)
    assert ball.vertex_count == 2 * radius + 2
    assert len(ball.edges) == 2 * radius + 1
    mg = ball.to_multigraph()
    degrees = mg.weighted_degrees()
    assert mg.is_connected()
    assert max(degrees) <= 2
    assert sorted(degrees).count(1) == 2  # exactly two endpoints
    assert all(m == 1 for _, _, m in ball.edges)
    # classes alternate along the path
    for u, v, _ in ball.edges:
        assert ball.vertices[u].class_id != ball.vertices[v].class_id


def test_affine_interior_degrees():
    ball = affine_ball(3)
    degrees = ball.weighted_degrees()
    for i, vert in enumerate(ball.vertices):
        if vert.interior:
            assert degrees[i] == 2


@pytest.mark.parametrize("maker,radii", [(sl2z_ball, (0, 1, 2, 3)), (affine_ball, (0, 1, 2, 5))])
def test_ball_monotone_under_canonical_keys(maker, radii):
    balls = {r: maker(r) for r in radii}
    for small, large in zip(radii, radii[1:]):
        a, b = balls[small], balls[large]
        key_to_id = {(v.class_id, v.key): i for i, v in enumerate(b.vertices)}
        mapping = {}
        for i, v in enumerate(a.vertices):
            assert (v.class_id, v.key) in key_to_id
            mapping[i] = key_to_id[(v.class_id, v.key)]
        small_edges = {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v])): m
                       for u, v, m in a.edges}
        large_edges = {(u, v): m for u, v, m in b.edges}
        # same multiplicities on the embedded pairs
        for pair, m in small_edges.items():
            assert large_edges.get(pair) == m
        # induced: no extra large-ball edge between embedded vertices
        embedded = set(mapping.values())
        for (u, v), m in large_edges.items():
            if u in embedded and v in embedded:
                assert (u, v) in small_edges


def test_is_locally_finite():
    assert is_locally_finite([4, 6]) is True
    assert is_locally_finite([4, INFINITE]) is False
    assert is_locally_finite([]) is True
    with pytest.raises(InvalidParameterError):
        is_locally_finite([0])


# sha256 of dumps(document_from_ball(ball)): vertex numbering, edges and
# multiplicities stay fixed however ball growth finds its cosets
_BALL_SHA256 = {
    ("sl2z", 0): "b31d0f3f6e365d7ecc8817f0ab8eea2712bb7ea59bf4ba49d4bb461ed8e64e8a",
    ("sl2z", 1): "485ec448c4ab980fec679742eb8c5c7442db59de4721c377efc1ae0534094ac7",
    ("sl2z", 2): "44aa7615ea8927e544357063754d9365d19ca9110a5ecbe56e50a06e7f852f5d",
    ("sl2z", 3): "6ebc90f4bcb850ce9509fd4d9a629864f193a3178e7125a33981d617e859e64b",
    ("sl2z", 4): "bbbf590787ebde4380b58229800119053c94d01397e6b592c5f2635badc1ad9c",
    ("sl2z", 5): "0bc644ab2d6abe2b35b66f280b01e397136c14b95d02587fe58866ebd91a115b",
    ("sl2z", 6): "9a8441e79b7ce2771018f3df109c5d699bfbb0db5547d2398748cec07452d56a",
    ("sl2z", 7): "95fffec2924d4013f3d04365c3fe495b90c411a7aef91c6b74302d9b7f96d9ca",
    ("sl2z", 8): "17580868dfb818d274b74b0c481c8ae8d1b6bcb2c606c0a5c107ef68d98e66f3",
    ("sl2z", 9): "2f2378a7d10106444893b4b2792089669ffcecce9540f8b0754305e8ac6702e9",
    ("sl2z", 10): "4617bc75beb863c0c5ded3523c55071bac9a5f4d9a1f92e4d698404bfac2e5f7",
    ("sl2z", 11): "f9f56158bfb0fec6c8022f8dcba423a97117c6d5a4bd36db3ba27b979bf76b5d",
    ("sl2z", 12): "dc6cc68d328ceffc488281e37dd97e9df6a3f713cdf6dbbab27070ef632c2258",
    ("affine", 0): "9640feef32c68951ccbe92313fcdd77c0d5bf2883edeecbce12a5cf1eae6bc9f",
    ("affine", 1): "139164b8f5eecc320ca34f462d20e444447b260df24096da30085c550fa49e99",
    ("affine", 2): "b67f5c043643b34a66518a02754c57a4b245dc4121c01d8725bac0d4993ce9f2",
    ("affine", 1000): "f1c3a5cc5feae9825c8335025d8b0ed9976333775acf2c486c5ad01dd58c2f98",
}


@pytest.mark.parametrize("kind, radius", sorted(_BALL_SHA256))
def test_ball_documents_are_pinned(kind, radius):
    ball = {"sl2z": sl2z_ball, "affine": affine_ball}[kind](radius)
    text = dumps(document_from_ball(ball))
    assert hashlib.sha256(text.encode()).hexdigest() == _BALL_SHA256[kind, radius]
