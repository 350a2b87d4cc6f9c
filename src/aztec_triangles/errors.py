"""Shared exceptions, and the search budget and engine of the brute-force searches."""

import os

DEFAULT_CAP = 10**7
CAP_ENV_VAR = "AZTEC_CAP"


class CapExceeded(RuntimeError):
    """An exhaustive search went past its node budget."""


class IdentityError(ArithmeticError):
    """An identity that should hold exactly evaluated to something else."""


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
    and aborts once the cap is reached."""

    def __init__(self, name: str, cap: int | None = None):
        self.name = name
        self.cap = default_cap() if cap is None else cap
        self.used = 0

    def spend(self, nodes: int = 1) -> None:
        self.used += nodes
        if self.used > self.cap:
            raise CapExceeded(f"{self.name} search exceeded cap of {self.cap} nodes")


def memo_search(root, successors, fold, start, budget: SearchBudget) -> list:
    """The fold from ``start`` of the payloads on the way to each goal below
    ``root``, in the order of the plain depth-first walk.

    ``successors(state)`` is None at a goal, else the ``(payload, child)``
    steps in walk order; a state's subtree depends on the state alone.
    ``fold(acc, payload)`` must be associative.  Pass 1 expands each state
    once, keeping its subtree's node count and its live steps (those with
    a goal below); a step into a state with one live step merges with it.
    Pass 2 folds along the live steps only.  The budget is charged one node
    at a state's first visit and its subtree's count at each repeat, so it
    runs out exactly when the plain walk would, and at once when a repeated
    subtree is over the cap.  Both passes walk on an explicit stack, so a
    search of any depth runs within the Python stack.
    """
    memo = {}  # state -> (nodes of its subtree, live steps or None at a goal)

    def expand(state):
        # yields each child and is sent back the child's memo entry
        budget.spend()
        steps = successors(state)
        size, live = 1, None if steps is None else []
        for payload, child in steps or ():
            nodes, below = yield child
            size += nodes
            if below is None or len(below) > 1:
                live.append((payload, below))
            elif below:  # one live step below: jump over the child
                (more, below), = below
                live.append((fold(payload, more), below))
        memo[state] = entry = (size, live)
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

    live = entry[1]
    if live is None:
        return [start]
    out, stack = [], [(start, iter(live))]
    while stack:
        acc, steps = stack[-1]
        for payload, below in steps:
            if below is None:
                out.append(fold(acc, payload))
            else:
                stack.append((fold(acc, payload), iter(below)))
                break
        else:
            stack.pop()
    return out
