"""Non-intersecting Delannoy path families and their determinant counts.

Family j (1-based) runs from u_j = (-j, j) to v_j = (mu_j - j, n) in Case 1
and to (mu_j - j, n+1) in Case 2, where Case 2 paths must not end with an
east step.  Counting vertex-disjoint families is a determinant of single
path counts, which is where the D and H matrices come from.  The brute-force
side, ``enumerate_path_families``, lists them on the shared search engine,
choosing path j against path j-1 alone.

Steps are recorded as a word over N (north), D (northeast diagonal) and
E (east).

The determinant side, ``lgv_matrix`` (the leading block of the nonzero
parts) and the staircase matrices, is built in ``delannoy`` beside the
entries, so that counting by determinant never imports this module or the
tableaux it draws on; ``lgv_matrix`` is bound here as well.
"""

from functools import partial
from typing import NamedTuple

from .delannoy import lgv_matrix  # noqa: F401
from .partitions import Partition, check_partition
from .tableaux import Entry, SuperSymplecticTableau, validate_tableau

_MOVES = {"N": (0, 1), "D": (1, 1), "E": (1, 0)}


class LatticePath(NamedTuple):
    start: tuple[int, int]
    steps: str

    def points(self) -> list[tuple[int, int]]:
        x, y = self.start
        pts = [(x, y)]
        for ch in self.steps:
            dx, dy = _MOVES[ch]
            x, y = x + dx, y + dy
            pts.append((x, y))
        return pts

    @property
    def end(self) -> tuple[int, int]:
        return self.points()[-1]


class PathFamily(NamedTuple):
    case: int
    mu: Partition
    paths: tuple[LatticePath, ...]  # paths[j-1] starts at (-j, j)

    @property
    def n(self) -> int:
        return len(self.mu)

    def to_json(self) -> dict:
        return {
            "mu": list(self.mu),
            "case": self.case,
            "paths": [
                {"j": j, "start": list(p.start), "end": list(p.end), "steps": p.steps}
                for j, p in enumerate(self.paths, start=1)
            ],
        }


def start_point(j: int) -> tuple[int, int]:
    return (-j, j)


def end_point(mu: Partition, case: int, j: int) -> tuple[int, int]:
    n = len(mu)
    return (mu[j - 1] - j, n + (1 if case == 2 else 0))


def is_vertex_disjoint(family: PathFamily) -> bool:
    seen = set()
    for path in family.paths:
        for pt in path.points():
            if pt in seen:
                return False
            seen.add(pt)
    return True


def validate_family(family: PathFamily) -> bool:
    if family.case not in (1, 2):
        return False
    if len(family.paths) != family.n:
        return False
    for j, path in enumerate(family.paths, start=1):
        if not set(path.steps) <= _MOVES.keys():
            return False
        end = end_point(family.mu, family.case, j)
        if path.start != start_point(j) or path.end != end:
            return False
        if family.case == 2 and path.steps.endswith("E"):
            return False
    return is_vertex_disjoint(family)


def tableau_to_paths(t: SuperSymplecticTableau) -> PathFamily:
    """Row j's unbarred i becomes an east step on y = i, barred i a
    northeast step leaving y = i; north steps fill the gaps.  In a valid
    tableau each entry is at least the height its path has reached."""
    if not validate_tableau(t):
        raise ValueError("invalid tableau")
    n = t.n
    top = n + (1 if t.case == 2 else 0)
    paths = []
    for j in range(1, n + 1):
        y = j
        steps = []
        for e in t.rows[j - 1]:
            steps.append("N" * (e.value - y))
            y = e.value
            if e.barred:
                steps.append("D")
                y += 1
            else:
                steps.append("E")
        steps.append("N" * (top - y))
        paths.append(LatticePath(start_point(j), "".join(steps)))
    return PathFamily(t.case, t.shape, tuple(paths))


def paths_to_tableau(f: PathFamily) -> SuperSymplecticTableau:
    """Read row j's entries off the east and northeast steps of path j:
    mu_j of them, since path j ends mu_j columns east of its start.  The
    endpoints, disjointness and the Case 2 rule that ``validate_family``
    checks make the rows a valid tableau."""
    if not validate_family(f):
        raise ValueError("invalid path family")
    rows = []
    for path in f.paths:
        y = path.start[1]
        row = []
        for ch in path.steps:
            if ch == "E":
                row.append(Entry(y, False))
            elif ch == "D":
                row.append(Entry(y, True))
                y += 1
            else:
                y += 1
        rows.append(tuple(row))
    return SuperSymplecticTableau(f.case, tuple(f.mu), tuple(rows))


def _single_paths(start, end, ban_final_east, budget):
    """All N/D/E step words from start to end, ascending lexicographic.

    The walk runs on ``memo_search`` with state (dx, dy), the displacement
    still to go: each is expanded once, and the budget is charged one node
    per prefix of the plain walk, repeated subtrees included."""
    from .search import memo_search

    dx0, dy0 = end[0] - start[0], end[1] - start[1]

    def successors(state):
        dx, dy = state
        if dx == 0 and dy == 0:
            return None
        steps = []  # ascending step order: D < E < N
        if dx >= 1 and dy >= 1:
            steps.append(("D", (dx - 1, dy - 1)))
        if dx >= 1 and not (ban_final_east and dx == 1 and dy == 0):
            steps.append(("E", (dx - 1, dy)))
        if dy >= 1:
            steps.append(("N", (dx, dy - 1)))
        return steps

    return memo_search((dx0, dy0), successors, "", budget, str)


def enumerate_path_families(mu: Partition, case: int):
    """Brute-force the vertex-disjoint families with the prescribed endpoints,
    in lexicographic order of their step words: ``memo_search`` over states
    (j, points of path j-1), charged like ``_single_paths``.  The search's
    ``Found``, which builds a family only when one is read."""
    from .search import SearchBudget, memo_search

    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case}")
    mu = check_partition(tuple(mu))
    n = len(mu)
    budget = SearchBudget("path")
    # each candidate path and its points, built once for the whole search
    candidates = []
    for j in range(1, n + 1):
        start = start_point(j)
        words = _single_paths(start, end_point(mu, case, j), case == 2, budget)
        paths_j = [LatticePath(start, steps) for steps in words]
        candidates.append([((path,), frozenset(path.points())) for path in paths_j])

    def successors(state):
        # N, D and E steps cannot cross without a shared vertex, so a path
        # that misses path j-1 lies left of it and misses every earlier path
        j, before = state
        if j > n:
            return None
        return [(payload, (j + 1, pts)) for payload, pts in candidates[j - 1]
                if before.isdisjoint(pts)]

    return memo_search((1, frozenset()), successors, (), budget,
                       partial(PathFamily, case, mu))
