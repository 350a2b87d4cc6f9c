"""Super symplectic semistandard tableaux and the chain bijection.

Entries are ordered 1 < 1bar < 2 < 2bar < ...; type 1 fillings stop at the
unbarred n, type 2 at nbar, where n is the declared length of the shape.
Rows and columns weakly increase; an entry may equal its left neighbour
only when unbarred and the one above only when barred, so unbarred values
form horizontal strips and barred values vertical strips.  No value smaller
than its row index may appear (rows 1-based).
"""

from bisect import bisect_right
from functools import partial
from typing import NamedTuple

from .errors import Found
from .partitions import Partition, is_partition, normalize, part
from .sequences import PartitionSequence, chain_length, chain_search, validate_sequence


class Entry(NamedTuple):
    value: int
    barred: bool

    def __str__(self):
        return f"{self.value}~" if self.barred else str(self.value)


class SuperSymplecticTableau(NamedTuple):
    case: int
    shape: Partition
    rows: tuple[tuple[Entry, ...], ...]

    @property
    def n(self) -> int:
        return len(self.shape)

    def max_entry(self) -> Entry:
        """Largest admissible entry for this type."""
        return Entry(self.n, self.case == 2)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "case": self.case,
            "rows": [[str(e) for e in row] for row in self.rows],
        }


def validate_tableau(t: SuperSymplecticTableau) -> bool:
    """Check the case and the shape, then each entry e at 0-based row r and
    column c: r + 1 <= e.value and e <= ``max_entry``; the entry to the left
    is < e, or == e with e unbarred; the entry above is < e, or == e with e
    barred."""
    if t.case not in (1, 2):
        return False
    if not is_partition(t.shape):
        return False
    if len(t.rows) != len(t.shape):
        return False
    if any(len(row) != width for row, width in zip(t.rows, t.shape)):
        return False
    top = t.max_entry()
    for r, row in enumerate(t.rows):
        for c, e in enumerate(row):
            if e.value < r + 1 or e > top:
                return False
            if c > 0 and (e < row[c - 1] or (e == row[c - 1] and e.barred)):
                return False
            if r > 0 and (e < above[c] or (e == above[c] and not e.barred)):
                return False
        above = row
    return True


def _entry_for_chain_index(m: int) -> Entry:
    # chain step m >= 1 adds entries i = ceil(m/2), barred when m is even
    return Entry((m + 1) // 2, m % 2 == 0)


def _cells(n, m, lam, nu):
    """The one-step payload of chain step m from lam to nu: a 1-tuple
    holding the cells it adds to each of n rows, nu_r - lam_r of them, all
    holding the step's entry."""
    entry = _entry_for_chain_index(m)
    return (tuple((entry,) * (part(nu, r) - part(lam, r)) for r in range(n)),)


def _fill(case, shape, steps):
    """The tableau whose row r is row r of each step's cells, in order."""
    return SuperSymplecticTableau(case, shape, tuple(sum(row, ()) for row in zip(*steps)))


def sequence_to_tableau(seq: PartitionSequence) -> SuperSymplecticTableau:
    """Fill the cells added at chain step m with the step's entry."""
    if not validate_sequence(seq):
        raise ValueError("invalid partition sequence")
    steps = sum((_cells(seq.n, m, seq.chain[m - 1], seq.chain[m])
                 for m in range(1, seq.ell)), ())
    return _fill(seq.case, tuple(seq.mu), steps)


def tableau_to_sequence(t: SuperSymplecticTableau) -> PartitionSequence:
    """Recover chain entry m as the cells holding entries <= the step entry."""
    if not validate_tableau(t):
        raise ValueError("invalid tableau")
    ell = chain_length(t.shape, t.case)
    chain = []
    for m in range(ell):
        if m == 0:
            chain.append(())
            continue
        top = _entry_for_chain_index(m)
        lam = tuple(bisect_right(row, top) for row in t.rows)
        chain.append(normalize(lam))
    return PartitionSequence(t.case, t.shape, tuple(chain))


def enumerate_tableaux(mu: Partition, case: int) -> Found:
    """All type-1/type-2 tableaux of shape mu, in chain order: the search's
    ``Found``, which builds a tableau only when one is read.

    The chain search builds them itself, so no chain is kept or validated
    again: the payload of a step is the cells it adds, ``_cells``, and a
    tableau is ``_fill`` of its steps' cells.
    """
    mu = tuple(mu)
    return chain_search(mu, case, partial(_cells, len(mu)), (),
                        partial(_fill, case, mu))
