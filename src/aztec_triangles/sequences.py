"""Interlacing partition chains (Case 1 and Case 2) and their enumeration.

A Case 1 chain for mu of declared length n has 2n partitions, a Case 2
chain 2n+1.  The chain starts empty, ends at mu, alternates horizontal and
vertical strip growth, and its i-th entry has at most ceil(i/2) nonzero
parts.
"""

import json
from functools import cache, partial
from operator import add
from typing import NamedTuple

from .errors import Found, SearchBudget, memo_search
from .partitions import (
    Partition,
    is_horizontal_strip,
    is_partition,
    is_vertical_strip,
    normalize,
    pad,
    part,
)


class PartitionSequence(NamedTuple):
    case: int
    mu: Partition
    chain: tuple[Partition, ...]

    @property
    def n(self) -> int:
        return len(self.mu)

    @property
    def ell(self) -> int:
        return len(self.chain)

    def to_json(self) -> dict:
        return {
            "mu": list(self.mu),
            "case": self.case,
            "chain": [list(lam) for lam in self.chain],
        }


def json_lines(items):
    """The lines ``json.dumps(item.to_json())`` of one stream's items, which
    differ only in their last field, whose element i alone makes element i
    of the list ending their JSON.  The head before that list is encoded
    once, and so is each (i, element), from an item holding i + 1 copies."""
    text = None
    for item in items:
        if text is None:
            field = item._fields[-1]
            head = json.dumps(item._replace(**{field: ()}).to_json())[:-2]  # to the "["

            @cache
            def text(i_part):
                i, part = i_part
                shell = item._replace(**{field: (part,) * (i + 1)})
                return json.dumps([*shell.to_json().values()][-1][i])
        yield f"{head}{', '.join(map(text, enumerate(item[-1])))}]}}\n"


def chain_length(mu: Partition, case: int) -> int:
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case}")
    return 2 * len(mu) + (1 if case == 2 else 0)


def validate_sequence(seq: PartitionSequence) -> bool:
    """Check all five chain conditions for the declared case."""
    if seq.case not in (1, 2):
        return False
    if not is_partition(seq.mu):
        return False
    chain = seq.chain
    if len(chain) != chain_length(seq.mu, seq.case):
        return False
    if len(chain) == 0:
        return True
    if normalize(chain[0]) != ():
        return False
    if normalize(chain[-1]) != normalize(seq.mu):
        return False
    for i, (prev, lam) in enumerate(zip(chain, chain[1:]), start=1):
        if not is_partition(lam) or len(normalize(lam)) > (i + 1) // 2:
            return False
        strip = is_horizontal_strip if i % 2 == 1 else is_vertical_strip
        if not strip(lam, prev):
            return False
    return True


def _strip_extensions(lam, bound, max_parts, vertical):
    """All nu >= lam with nu/lam a horizontal strip (nu_r <= lam_(r-1)), or a
    vertical one (nu_r <= lam_r + 1) if ``vertical``, nu a partition inside
    bound with at most max_parts nonzero parts, in ascending order, built
    row by row with each part capped by the last."""
    found = [()]
    for r in range(min(max_parts, len(normalize(bound)))):
        lo = part(lam, r)
        top = lo + 1 if vertical else part(lam, r - 1) if r else bound[r]
        hi = min(bound[r], top)
        found = [nu + (v,) for nu in found
                 for v in range(lo, (min(hi, nu[-1]) if r else hi) + 1)]
    return [normalize(nu) for nu in found]


def chain_search(mu, case, step, fold, start, wrap) -> Found:
    """The one chain search: a depth-first walk over the chains ending at
    mu, in lexicographic order, charging one budget node per chain prefix.

    The steps lam -> nu at chain index i depend only on (i, lam), so the
    walk runs on ``memo_search`` with that state: each step and its payload
    ``step(i, lam, nu)`` is computed once, and a repeated state is charged
    its subtree's nodes in the plain walk.  Each chain's payloads are
    folded, ``fold(state, payload)`` from ``start``, and the returned
    ``Found`` builds ``wrap`` of each fold in the plain walk's order.
    ``mu`` is a tuple.
    """
    if not is_partition(mu):
        raise ValueError(f"not a partition: {mu}")
    ell = chain_length(mu, case)
    target = normalize(mu)
    bound = pad(target, len(mu))
    budget = SearchBudget("chain")
    if ell == 0:  # mu = () in case 1: the empty chain, and no rows
        return Found((), fold, 1, None, wrap)

    def successors(state):
        i, lam = state
        if i == ell:
            return None
        options = _strip_extensions(lam, bound, (i + 1) // 2, i % 2 == 0)
        if i == ell - 1:
            options = [nu for nu in options if nu == target]
        return [(step(i, lam, nu), (i + 1, nu)) for nu in options]

    return memo_search((1, ()), successors, fold, start, budget, wrap)


def enumerate_sequences(mu: Partition, case: int) -> Found:
    """The chains ending at mu, in lexicographic order: the search's
    ``Found``, which builds a sequence only when one is read.

    In the chain search, the payload of a step to nu is ``(nu,)`` and the
    state is the chain so far.
    """
    mu = tuple(mu)
    return chain_search(mu, case, lambda i, lam, nu: (nu,), add, ((),),
                        partial(PartitionSequence, case, mu))
