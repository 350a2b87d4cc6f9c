"""Generalized Aztec triangles: construction, tiling search, the chain
bijection, and ASCII/SVG rendering.

Cells are addressed as (d, p): diagonal d (numbered northwest to southeast
from 0) and position p along the diagonal from its southwestern-most cell.
Every diagonal's first cell sits directly below the previous one's, so p is
also the Cartesian x coordinate; Cartesian placement is derived only when
rendering.

Diagonal lengths follow the construction rules: diagonal 0 has length mu_1,
odd diagonals grow by one cell, even diagonals repeat the previous length,
so diagonal d has mu_1 + ceil(d/2) cells.  The final diagonal is masked by
mu's hole/particle word: holes are cells of the Case 1 domain, particles
cells of the Case 2 domain.

A domino always starts (north or west cell) on some diagonal d and covers
(d, p) plus (d+1, p) when vertical or (d+1, p+1) when horizontal; it is
"even" or "odd" with d.  A square carries its diagonal's mark (holes on even
diagonals, particles on odd ones) unless it is the second cell of a domino,
which carries the mark of the diagonal before.  Off-domain squares of the
final diagonal are no domino's cell, so they need no case of their own.
Reading each diagonal's hole/particle word through the Maya correspondence
produces the partition chain.
"""

from functools import partial
from typing import NamedTuple

from .partitions import (
    HOLE,
    PARTICLE,
    Partition,
    check_partition,
    from_maya,
    normalize,
    pad,
    to_maya,
)
from .sequences import PartitionSequence, chain_length, validate_sequence

VERTICAL = "V"
HORIZONTAL = "H"


class Domain(NamedTuple):
    case: int
    mu: Partition
    lengths: tuple[int, ...]  # unmasked length of each diagonal
    cells: frozenset

    @property
    def num_diagonals(self) -> int:
        return len(self.lengths)

    def sorted_cells(self) -> list[tuple[int, int]]:
        return sorted(self.cells)


class Domino(NamedTuple):
    d: int
    p: int
    orient: str  # "V" or "H"

    def cells(self) -> tuple[tuple[int, int], tuple[int, int]]:
        dp = 1 if self.orient == HORIZONTAL else 0
        return ((self.d, self.p), (self.d + 1, self.p + dp))

    @property
    def even(self) -> bool:
        return self.d % 2 == 0

    def to_json(self) -> dict:
        return {"d": self.d, "p": self.p, "orient": self.orient}


class Tiling(NamedTuple):
    domain: Domain
    dominoes: tuple[Domino, ...]

    def to_json(self) -> dict:
        return {
            "mu": list(self.domain.mu),
            "case": self.domain.case,
            "dominoes": [d.to_json() for d in self.dominoes],
        }


def build_domain(mu: Partition, case: int) -> Domain:
    """Construct the type 1 or type 2 domain for mu of declared length n."""
    mu = check_partition(tuple(mu))
    ell = chain_length(mu, case)
    mu1 = mu[0] if mu else 0
    lengths = tuple(mu1 + (d + 1) // 2 for d in range(ell))
    cells = set()
    for d in range(ell - 1):
        cells.update((d, p) for p in range(lengths[d]))
    if ell > 0:
        word = to_maya(mu, lengths[-1])
        keep = HOLE if case == 1 else PARTICLE
        cells.update((ell - 1, p) for p, ch in enumerate(word) if ch == keep)
    return Domain(case, mu, lengths, frozenset(cells))


def validate_tiling(tiling: Tiling) -> bool:
    """Dominoes are V or H, mutually disjoint, and cover the domain exactly."""
    if any(domino.orient not in (VERTICAL, HORIZONTAL) for domino in tiling.dominoes):
        return False
    covered = [cell for domino in tiling.dominoes for cell in domino.cells()]
    return len(covered) == len(set(covered)) and set(covered) == set(
        tiling.domain.cells
    )


def enumerate_tilings(domain: Domain):
    """Every tiling of the domain, sorted by its dominoes: backtracking exact
    cover over the first uncovered cell in (d, p) order; that cell is always
    the start of some domino.  The search's ``Found``: its ``len`` is the
    count, and it builds a tiling only when one is read.

    The walk runs on ``memo_search``, whose state, the bitmask of covered
    cells, fixes the rest of the walk.  It expands each state once and
    charges the budget the nodes of the plain walk, repeats included.

    Each cell's dominoes are built once, H before V.  Dominoes are placed in
    start-cell order and ``Domino`` orders "H" < "V", so every tiling comes
    out with sorted dominoes and the tilings come out sorted by
    ``t.dominoes`` without a sort."""
    from .search import SearchBudget, memo_search

    cells = domain.sorted_cells()
    index = {cell: i for i, cell in enumerate(cells)}
    # each step covers cell i and its partner: a one-domino payload and two bits
    options = [
        [
            ((Domino(d, p, orient),), 1 << i | 1 << index[other])
            for orient, other in ((HORIZONTAL, (d + 1, p + 1)), (VERTICAL, (d + 1, p)))
            if other in index
        ]
        for i, (d, p) in enumerate(cells)
    ]

    def successors(covered):
        i = (~covered & (covered + 1)).bit_length() - 1  # first uncovered cell
        if i == len(cells):
            return None
        return [
            (tile, covered | bits) for tile, bits in options[i] if not covered & bits
        ]

    return memo_search(0, successors, (), SearchBudget("tiling"), partial(Tiling, domain))


def _diagonal_words(tiling: Tiling) -> list[str]:
    """Each diagonal's hole/particle word: square (d, p) carries diagonal
    d's mark unless it is the second cell of a domino, which carries the
    mark of diagonal d - 1.  An off-domain square of the final diagonal is
    no domino's cell, so it carries its own diagonal's mark, as a start does."""
    seconds = {domino.cells()[1] for domino in tiling.dominoes}
    marks = (HOLE, PARTICLE)
    return [
        "".join(marks[(d - ((d, p) in seconds)) % 2] for p in range(length))
        for d, length in enumerate(tiling.domain.lengths)
    ]


def tiling_to_sequence(tiling: Tiling) -> PartitionSequence:
    """Decode diagonal d's hole/particle word into the d-th chain entry."""
    if not validate_tiling(tiling):
        raise ValueError("invalid tiling")
    chain = tuple(normalize(from_maya(w)) for w in _diagonal_words(tiling))
    return PartitionSequence(tiling.domain.case, tiling.domain.mu, chain)


def sequence_to_tiling(seq: PartitionSequence) -> Tiling:
    """Rebuild the tiling whose diagonal words spell out the chain.

    On each even diagonal the holes are domino starts and advance by 0
    (vertical) or 1 (horizontal) position into the next diagonal; on odd
    diagonals the particles do.  The window sizes give both diagonals as
    many moving marks, and the interlacing that ``validate_sequence`` checks
    makes every advance 0 or 1.
    """
    if not validate_sequence(seq):
        raise ValueError("invalid partition sequence")
    domain = build_domain(seq.mu, seq.case)
    ell = domain.num_diagonals
    words = [
        to_maya(pad(seq.chain[d], (d + 1) // 2), domain.lengths[d])
        for d in range(ell)
    ]
    dominoes = []
    for d in range(ell - 1):
        moving = HOLE if d % 2 == 0 else PARTICLE
        sources = [p for p, ch in enumerate(words[d]) if ch == moving]
        targets = [p for p, ch in enumerate(words[d + 1]) if ch == moving]
        for a, b in zip(sources, targets):
            dominoes.append(Domino(d, a, VERTICAL if b == a else HORIZONTAL))
    return Tiling(domain, tuple(sorted(dominoes)))


# ---------------------------------------------------------------------------
# Rendering
#
# Cartesian placement: cell (d, p) sits at x = p, y = (ell - 1) - d + p, so
# the last diagonal starts at height 0.  A domain is drawn as a tiling with
# no dominoes.  ASCII glyphs:
#   cells:     '.' cell on an even diagonal, ':' on an odd one,
#              '~' final-diagonal square not in the domain
#   dominoes:  'O'/'o' start/second cell of an even domino (holes),
#              'X'/'x' start/second cell of an odd domino (particles),
#              drawn over the glyphs of the cells they cover
# SVG, written as text: a <rect> per cell (dashed for '~' squares), then per
# domino a <rect> around it and a <circle> on each cell (white holes, black
# particles).
# ---------------------------------------------------------------------------

_SVG_UNIT = 24
_LIGHT = "#ffffff"
_DARK = "#cccccc"


def _cell_xy(domain: Domain, d: int, p: int) -> tuple[int, int]:
    return p, (domain.num_diagonals - 1) - d + p


def _ghost_cells(domain: Domain):
    ell = domain.num_diagonals
    if ell == 0:
        return
    for p in range(domain.lengths[ell - 1]):
        if (ell - 1, p) not in domain.cells:
            yield ell - 1, p


def _ascii(domain: Domain, dominoes) -> str:
    glyphs = {(d, p): "." if d % 2 == 0 else ":" for d, p in domain.cells}
    for domino in dominoes:
        start, second = domino.cells()
        glyphs[start] = "O" if domino.even else "X"
        glyphs[second] = "o" if domino.even else "x"
    for cell in _ghost_cells(domain):
        glyphs[cell] = "~"
    spots = {_cell_xy(domain, d, p): ch for (d, p), ch in glyphs.items()}
    if not spots:
        return ""
    xs = [x for x, _ in spots]
    ys = [y for _, y in spots]
    lines = []
    for y in range(max(ys), min(ys) - 1, -1):
        line = "".join(spots.get((x, y), " ") for x in range(0, max(xs) + 1))
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


def _svg(domain: Domain, dominoes) -> str:
    ell = domain.num_diagonals
    width = max((domain.lengths[d] for d in range(ell)), default=0)
    height = ell - 1 + width if ell else 0
    tags = []

    def rect(x, y, w, h, fill, stroke_width, stroke="#888888", dash=""):
        # (x, y) is the top-left unit square; w and h count unit squares
        dash = f' stroke-dasharray="{dash}"' if dash else ""
        tags.append(
            f'<rect x="{(x + 1) * _SVG_UNIT}" y="{(height - y) * _SVG_UNIT}" '
            f'width="{w * _SVG_UNIT}" height="{h * _SVG_UNIT}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{stroke_width}"{dash} />'
        )

    for d, p in domain.sorted_cells():
        rect(*_cell_xy(domain, d, p), 1, 1, _LIGHT if d % 2 == 0 else _DARK, 1)
    for d, p in _ghost_cells(domain):
        rect(*_cell_xy(domain, d, p), 1, 1, "none", 1, dash="4 3")
    for domino in dominoes:
        (x1, y1), (x2, y2) = (_cell_xy(domain, d, p) for d, p in domino.cells())
        rect(min(x1, x2), max(y1, y2), abs(x2 - x1) + 1, abs(y2 - y1) + 1,
             "none", 3, stroke="#1f4e9c")
        fill = _LIGHT if domino.even else "#000000"
        for x, y in ((x1, y1), (x2, y2)):
            tags.append(
                f'<circle cx="{(x + 1) * _SVG_UNIT + _SVG_UNIT // 2}" '
                f'cy="{(height - y) * _SVG_UNIT + _SVG_UNIT // 2}" '
                f'r="{_SVG_UNIT // 6}" fill="{fill}" stroke="#000000" />'
            )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{(width + 2) * _SVG_UNIT}" height="{(height + 2) * _SVG_UNIT}"'
    )
    # with no cells there is no tag inside, and the root closes itself
    return f"{svg}>{''.join(tags)}</svg>\n" if tags else f"{svg} />\n"


def render(obj, fmt: str) -> str:
    """Deterministic ASCII or SVG picture of a Domain or Tiling; a Domain is
    drawn as a tiling with no dominoes."""
    if isinstance(obj, Tiling):
        domain, dominoes = obj.domain, obj.dominoes
    else:
        domain, dominoes = obj, ()
    if fmt == "ascii":
        return _ascii(domain, dominoes)
    if fmt == "svg":
        return _svg(domain, dominoes)
    raise ValueError(f"unknown format {fmt!r}")
