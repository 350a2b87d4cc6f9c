"""Partitions, strip predicates, and the Maya (hole/particle) encoding.

A partition is a weakly decreasing tuple of non-negative ints.  Trailing
zeros are significant where a declared length matters (the chain and domain
constructions fix the number of parts); ``normalize`` strips them for
canonical equality.

Maya words run southwest to northeast: position 0 is the southwestern-most
cell.  A hole is an east step of the shape's boundary, a particle a north
step; the implicit continuation is particles before the window and holes
after it.
"""

HOLE = "o"
PARTICLE = "x"

Partition = tuple[int, ...]


def is_partition(p: Partition) -> bool:
    return all(a >= b for a, b in zip(p, p[1:])) and all(a >= 0 for a in p)


def check_partition(p: Partition) -> Partition:
    if not is_partition(p):
        raise ValueError(f"not a partition: {p}")
    return tuple(p)


def normalize(p: Partition) -> Partition:
    """Drop trailing zeros."""
    end = len(p)
    while end > 0 and p[end - 1] == 0:
        end -= 1
    return tuple(p[:end])


def pad(p: Partition, n: int) -> Partition:
    """Append zeros up to length n (p must fit)."""
    if len(normalize(p)) > n:
        raise ValueError(f"{p} has more than {n} nonzero parts")
    q = normalize(p)
    return q + (0,) * (n - len(q))


def part(p: Partition, i: int) -> int:
    """The i-th part (0-based), reading 0 beyond the declared length."""
    return p[i] if 0 <= i < len(p) else 0


def is_horizontal_strip(outer: Partition, inner: Partition) -> bool:
    """outer/inner has at most one box per column: the parts interlace,
    outer_i >= inner_i >= outer_(i+1)."""
    n = max(len(outer), len(inner))
    return all(part(outer, i) >= part(inner, i) >= part(outer, i + 1)
               for i in range(n))


def is_vertical_strip(outer: Partition, inner: Partition) -> bool:
    """outer/inner has at most one box per row: 0 <= outer_i - inner_i <= 1."""
    n = max(len(outer), len(inner))
    return all(0 <= part(outer, i) - part(inner, i) <= 1 for i in range(n))


def to_maya(p: Partition, window_length: int) -> str:
    """Hole/particle word of p (declared length = len(p)) in a fixed window.

    Reading SW to NE, row m (from the last part up) contributes its east
    steps then one north step, so the j-th part ends up as the number of
    holes southwest of the j-th-to-last particle.  The tail of the window is
    padded with holes.
    """
    check_partition(p)
    width = p[0] if p else 0
    needed = len(p) + width
    if window_length < needed:
        raise ValueError(
            f"window {window_length} too short for {p} (needs {needed})"
        )
    chars = []
    prev = 0
    for value in reversed(p):
        chars.append(HOLE * (value - prev))
        chars.append(PARTICLE)
        prev = value
    word = "".join(chars)
    return word + HOLE * (window_length - len(word))


def from_maya(word: str) -> Partition:
    """Decode a hole/particle word; the result has one part per particle."""
    parts = []
    holes = 0
    for ch in word:
        if ch == HOLE:
            holes += 1
        elif ch == PARTICLE:
            parts.append(holes)
        else:
            raise ValueError(f"bad Maya character {ch!r}")
    return tuple(reversed(parts))
