"""The search budget and the memoised search engine under the tiling,
chain, single-path and path-family searches."""

import os
from operator import index

from .errors import CapExceeded

DEFAULT_CAP = 10**7
CAP_ENV_VAR = "AZTEC_CAP"


def default_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # not an integer: rejected below with the non-positive ones
    if cap <= 0:
        raise ValueError(f"{CAP_ENV_VAR} must be a positive integer, got {raw!r}")
    return cap


class SearchBudget:
    """Counts the nodes of one named search ("tiling", "chain" or "path")
    and aborts once the cap is reached.  The cap is ``default_cap()`` at the
    budget's creation."""

    def __init__(self, name: str):
        self.name = name
        self.cap = default_cap()
        self.used = 0

    def spend(self, nodes: int = 1) -> None:
        self.used += nodes
        if self.used > self.cap:
            raise CapExceeded(f"{self.name} search exceeded cap of {self.cap} nodes")


class Found:
    """The items of one ``memo_search``, kept as its live steps; it reads
    like the list of them, without slices.

    ``goals`` is the goal count, an ``int`` of any size.  ``len`` returns
    it too, but stops at ``sys.maxsize``: above that it raises
    ``OverflowError``.  Iterating builds each item, ``wrap`` of ``start``
    followed by a goal's payloads, joined with ``+``, in walk order;
    ``found[i]``, for an integer i counted from the end when negative,
    builds item i alone, choosing each step on the way by the goal counts
    below it."""

    __slots__ = ("start", "goals", "live", "wrap")

    def __init__(self, start, goals, live, wrap):
        self.start, self.goals, self.live, self.wrap = start, goals, live, wrap

    def __len__(self):
        return self.goals

    def __iter__(self):
        wrap = self.wrap
        if self.live is None:
            yield wrap(self.start)
            return
        stack = [(self.start, iter(self.live))]
        while stack:
            acc, steps = stack[-1]
            for payload, _, below in steps:
                if below is None:
                    yield wrap(acc + payload)
                else:
                    stack.append((acc + payload, iter(below)))
                    break
            else:
                stack.pop()

    def __getitem__(self, i):
        i = index(i)
        if not -self.goals <= i < self.goals:
            raise IndexError(f"goal index {i} out of range")
        i %= self.goals
        acc, steps = self.start, self.live
        while steps is not None:
            for payload, goals, below in steps:
                if i < goals:
                    acc, steps = acc + payload, below
                    break
                i -= goals
        return self.wrap(acc)


def memo_search(root, successors, start, budget: SearchBudget, wrap) -> Found:
    """The items of the goals below ``root``, each ``wrap`` of ``start``
    followed by the payloads on the way to it, joined with ``+``, in the
    order of the plain depth-first walk.

    ``successors(state)`` is None at a goal, else the ``(payload, child)``
    steps in walk order; a state's subtree depends on the state alone.  The
    walk expands each state once, keeping its subtree's node count, its goal
    count and its live steps (those with a goal below); a step into a state
    with one live step merges with it, joining the two payloads.  It
    returns a ``Found`` over the root's live steps, and the whole budget
    charge falls in the walk: one node at a state's first visit and its
    subtree's count at each repeat, so the budget runs out exactly when the
    plain walk's would, and at once when a repeated subtree is over the
    cap.  Counting, iterating and indexing the result charge nothing.  The
    walk runs on an explicit stack, so a search of any depth runs within
    the Python stack.
    """
    memo = {}  # state -> (subtree nodes, goals below, live steps or None at a goal)

    def expand(state):
        # yields each child and is sent back the child's memo entry
        budget.spend()
        steps = successors(state)
        size, goals, live = (1, 1, None) if steps is None else (1, 0, [])
        for payload, child in steps or ():
            nodes, below_goals, below = yield child
            size += nodes
            goals += below_goals
            if below is None or len(below) > 1:
                live.append((payload, below_goals, below))
            elif below:  # one live step below: jump over the child
                (more, _, below), = below
                live.append((payload + more, below_goals, below))
        memo[state] = entry = (size, goals, live)
        return entry

    stack, entry = [expand(root)], None
    while stack:
        try:
            child = stack[-1].send(entry)
        except StopIteration as done:
            stack.pop()
            entry = done.value
            continue
        entry = memo.get(child)
        if entry is None:
            stack.append(expand(child))
        else:
            budget.spend(entry[0])
    return Found(start, *entry[1:], wrap)  # the root's goal count and live steps
