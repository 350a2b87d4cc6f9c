"""Super symplectic semistandard tableaux and the chain bijection.

Entries are ordered 1 < 1bar < 2 < 2bar < ...; type 1 fillings stop at the
unbarred n, type 2 at nbar, where n is the declared length of the shape.
Unbarred values must form horizontal strips, barred values vertical strips,
and no value smaller than its row index may appear (rows 1-based).
"""

from bisect import bisect_right
from functools import partial
from operator import add
from typing import NamedTuple

from .errors import Found
from .partitions import Partition, is_partition, normalize, pad, part
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
            if e.value < 1 or e > top:
                return False
            # symplectic condition: value >= its 1-based row index
            if e.value < r + 1:
                return False
            if c > 0 and e < row[c - 1]:
                return False
            if r > 0 and c < len(t.rows[r - 1]) and e < t.rows[r - 1][c]:
                return False
    # horizontal strips for unbarred values: at most one per column
    for r, row in enumerate(t.rows[1:], start=1):
        for c, e in enumerate(row):
            if not e.barred and c < len(t.rows[r - 1]) and t.rows[r - 1][c] == e:
                return False
    # vertical strips for barred values: at most one per row
    for row in t.rows:
        for a, b in zip(row, row[1:]):
            if a.barred and a == b:
                return False
    return True


def _entry_for_chain_index(m: int) -> Entry:
    # chain step m >= 1 adds entries i = ceil(m/2), barred when m is even
    return Entry((m + 1) // 2, m % 2 == 0)


def _cells(n, m, lam, nu):
    """The cells that chain step m from lam to nu adds to each of n rows:
    nu_r - lam_r of them, all holding the step's entry."""
    entry = _entry_for_chain_index(m)
    return tuple((entry,) * (part(nu, r) - part(lam, r)) for r in range(n))


def _grow(rows, new):
    return tuple(map(add, rows, new))


def sequence_to_tableau(seq: PartitionSequence) -> SuperSymplecticTableau:
    """Fill the cells added at chain step m with the step's entry."""
    if not validate_sequence(seq):
        raise ValueError("invalid partition sequence")
    n = seq.n
    rows = ((),) * n
    for m in range(1, seq.ell):
        rows = _grow(rows, _cells(n, m, seq.chain[m - 1], seq.chain[m]))
    return SuperSymplecticTableau(seq.case, pad(seq.mu, n), rows)


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
    again: the payload of a step is the cells it adds, ``_cells``, and the
    state is the tuple of rows.
    """
    mu = tuple(mu)
    return chain_search(mu, case, partial(_cells, len(mu)), _grow, ((),) * len(mu),
                        partial(SuperSymplecticTableau, case, mu))
