import pytest
from hypothesis import given
from hypothesis import strategies as st

from aztec_triangles.partitions import (
    HOLE,
    PARTICLE,
    check_partition,
    from_maya,
    is_horizontal_strip,
    is_partition,
    is_vertical_strip,
    normalize,
    pad,
    part,
    to_maya,
)


def contains(outer, inner):
    """Whether inner fits inside outer, part by part, the reference for the
    strip duality below."""
    n = max(len(outer), len(inner))
    return all(part(inner, i) <= part(outer, i) for i in range(n))


def conjugate(p):
    """Column lengths of the Young diagram, the reference for the strip
    duality below; the result has length p[0]."""
    width = p[0] if p else 0
    return tuple(sum(1 for q in p if q >= i) for i in range(1, width + 1))


partitions = st.lists(st.integers(0, 6), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_partition_validity():
    assert is_partition((4, 3, 1, 1))
    assert is_partition(())
    assert not is_partition((1, 2))
    assert not is_partition((2, -1))
    with pytest.raises(ValueError):
        check_partition((1, 2))


def test_normalize_and_pad():
    assert normalize((3, 2, 0, 0)) == (3, 2)
    assert normalize(()) == ()
    assert pad((3, 2), 4) == (3, 2, 0, 0)
    assert pad((3, 2, 0), 3) == (3, 2, 0)
    with pytest.raises(ValueError):
        pad((3, 2, 1), 2)


def test_conjugate_examples():
    assert conjugate((4, 3, 1, 1)) == (4, 2, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


@given(partitions)
def test_conjugate_involution(p):
    assert normalize(conjugate(conjugate(p))) == normalize(p)


def test_strip_examples():
    # the three skew shapes of lambda = (5,3,3,2)
    lam = (5, 3, 3, 2)
    assert not is_horizontal_strip(lam, (2, 2, 1, 0))
    assert not is_vertical_strip(lam, (2, 2, 1, 0))
    assert is_horizontal_strip(lam, (3, 3, 2, 1))
    assert not is_vertical_strip(lam, (3, 3, 2, 1))
    assert is_vertical_strip(lam, (4, 2, 2, 1))
    assert is_horizontal_strip(lam, lam)
    assert is_vertical_strip(lam, lam)
    assert not is_horizontal_strip((2, 2), (3,))  # not even contained


@given(partitions, partitions)
def test_strip_conjugate_duality(outer, inner):
    if not contains(outer, inner):
        assert not is_vertical_strip(outer, inner)
        return
    assert is_vertical_strip(outer, inner) == is_horizontal_strip(
        conjugate(outer), conjugate(inner)
    )


def test_maya_figure_word():
    # boundary word of (6,3,3,1): E N EE N N E NNN ... reading SW to NE
    word = to_maya((6, 3, 3, 1), 16)
    assert word == "oxooxxoooxoooooo"
    assert from_maya(word) == (6, 3, 3, 1)


def test_maya_empty_partition():
    assert to_maya((), 4) == HOLE * 4
    assert from_maya(HOLE * 4) == ()
    assert to_maya((0, 0), 4) == PARTICLE * 2 + HOLE * 2


def test_maya_southwest_rule():
    p = (3, 2, 2, 1)
    word = to_maya(p, 10)
    particles = [i for i, ch in enumerate(word) if ch == PARTICLE]
    for j, value in enumerate(p, start=1):
        pos = particles[-j]  # j-th-to-last particle
        assert value == sum(1 for ch in word[:pos] if ch == HOLE)


@given(partitions, st.integers(0, 5))
def test_maya_round_trip(p, extra):
    width = (p[0] if p else 0) + len(p)
    word = to_maya(p, width + extra)
    assert from_maya(word) == p


def test_maya_errors():
    with pytest.raises(ValueError):
        to_maya((3, 1), 3)
    with pytest.raises(ValueError):
        from_maya("ox?")


def test_last_diagonal_words():
    # the three worked mask examples
    assert to_maya((3, 2, 1), 6) == "oxoxox"
    assert to_maya((3, 2, 1, 0), 7) == "xoxoxox"
    assert to_maya((4, 1, 1, 0, 0), 9) == "xxoxxooox"
