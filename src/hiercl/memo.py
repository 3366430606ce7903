"""States after arrival-order prefixes, shared by the cells of one sweep.

Seq and fed cells are seeded by arrival position, and a hier cell by its
sequence of group memberships, so two cells whose arrival orders share a
prefix pass through bitwise-identical states up to its end.

Seq and fed cells share them through an ArrivalPlan: the first cell of a
plan trains the arrival trie of every planned order breadth-first
(`train_trie`), and each cell then takes its own result. That first cell's
wall time therefore carries the whole trie. (Hier exploration trains the
orderings inside one group as such a trie too.) Hier cells share them
through a PrefixMemo: a cell names its prefixes by a chain of keys, one
per group, each key encoding the whole prefix it ends; the runner resumes
from the deepest stored key of its chain and computes only the rest.
"""

from __future__ import annotations

from collections import Counter

from .learners import TrainingDiverged

# rows per stacked training call of a trie depth: the 4! leaves of an
# explored group of 4
STACK_ROWS = 24


def train_trie(orders, root, train_stack, label: str = "arrival prefix") -> dict:
    """{order: leaf node} for equal-length orders of task ids, trained
    breadth-first from the `root` node. Depth d's distinct prefixes go to
    `train_stack(d, prefixes, parents)` in first-appearance order, at most
    STACK_ROWS at a time, which returns one child node per prefix; a
    depth's parents are dropped once its children are trained. A
    TrainingDiverged becomes a ValueError that names the prefix it reports
    after `label` ("arrival prefix 2-0: task 0: ...")."""
    level = {(): root}
    for depth in range(len(orders[0])):
        prefixes = list(dict.fromkeys(order[: depth + 1] for order in orders))
        children = {}
        for start in range(0, len(prefixes), STACK_ROWS):
            chunk = prefixes[start : start + STACK_ROWS]
            try:
                nodes = train_stack(depth, chunk, [level[p[:-1]] for p in chunk])
            except TrainingDiverged as err:
                prefix = "-".join(map(str, chunk[err.index]))
                raise ValueError(f"{label} {prefix}: {err}") from err
            children.update(zip(chunk, nodes))
        level = children
    return level


class ArrivalPlan:
    """The planned arrival orders of one data seed and one seq or fed
    method, and the results their cells have yet to take.

    The first cell whose order is planned trains the trie of every planned
    order, and each cell then takes, and the plan drops, its own result.
    An order outside the plan, or asked again after its result was taken,
    is trained alone; so is every order of an empty plan. All cells of one
    plan must pass the same tasks, config, initial weights and seed.
    """

    def __init__(self, orders=()):
        self._todo = dict.fromkeys(tuple(int(t) for t in order) for order in orders)
        self._results: dict = {}

    def take(self, order, root, train_stack, result):
        """What the cell of `order` returns: `result(order, leaf node)`,
        the trie trained by `train_trie(orders, root, train_stack)`."""
        order = tuple(int(t) for t in order)
        if order in self._todo:
            leaves = train_trie(list(self._todo), root, train_stack)
            self._results = {o: result(o, leaf) for o, leaf in leaves.items()}
            self._todo = {}
        if order in self._results:
            return self._results.pop(order)
        return result(order, train_trie([order], root, train_stack)[order])


def membership_prefixes(groups) -> list[tuple[tuple[int, ...], ...]]:
    """Hier keys: the sorted task ids of each group up to and including
    each group, so orders that differ only inside groups share them."""
    members = tuple(tuple(sorted(g.task_ids)) for g in groups)
    return [members[: i + 1] for i in range(len(members))]


class PrefixMemo:
    """Prefix states for the planned cells of one data seed and method.

    `chains` holds every planned cell's key chain, in run order. A cell
    resumes from the deepest key it shares with any earlier cell, so that
    key's state is kept only while such resumes remain and is dropped after
    the last one; a plan whose cells share no prefix keeps nothing. Every
    cell that uses one memo must pass the same tasks, config, initial
    weights and seed. Stored states are never written again: runners copy
    whatever they go on to change. An empty memo keeps nothing, which is how
    a runner called without one behaves.
    """

    def __init__(self, chains=()):
        self._uses: Counter = Counter()
        self._states: dict = {}
        seen = set()
        for chain in chains:
            shared = [key for key in chain if key in seen]
            if shared:
                self._uses[shared[-1]] += 1
            seen.update(chain)

    def resume(self, chain) -> tuple[int, object]:
        """(depth, state) of the deepest stored key of `chain`, counting one
        use of it; (0, None) when none of its keys is stored."""
        for depth in range(len(chain), 0, -1):
            key = chain[depth - 1]
            if key in self._states:
                self._uses[key] -= 1
                if self._uses[key]:
                    return depth, self._states[key]
                return depth, self._states.pop(key)
        return 0, None

    def store(self, key, state) -> bool:
        """Keep `state` under `key` if a later planned cell resumes from it;
        returns whether it was kept."""
        if self._uses[key] <= 0 or key in self._states:
            return False
        self._states[key] = state
        return True
