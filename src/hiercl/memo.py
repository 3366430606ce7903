"""States after shared prefixes, shared by the cells of one sweep.

Every cell names the chain of trie keys it trains through: seq and fed
cells are seeded by arrival position, so their chain is the arrival
order, and a hier cell is seeded by its sequence of group memberships, so
its chain is each group's sorted task ids. Two cells whose chains share a
prefix pass through bitwise-identical states up to its end.

They share them through an ArrivalPlan: the first planned cell trains the
trie of every planned chain breadth-first (`train_trie`), and each cell
then takes its own leaf and builds its result from it. That first cell's
wall time therefore carries the whole trie. (Hier exploration trains the
orderings inside one group as such a trie too.)
"""

from __future__ import annotations

from collections import Counter

from .learners import TrainingDiverged

# rows per stacked training call of a trie depth: the 4! leaves of an
# explored group of 4 fit one call. The cap bounds a wide depth's memory:
# with one stack per depth (no cap), sweep-er-k2's peak RSS read 51-52 MB
# against 44-44.5 MB at 24, with the same CSV bytes (2-core x86 Linux)
STACK_ROWS = 24


def train_trie(orders, root, train_stack, label: str = "arrival prefix") -> dict:
    """{order: leaf node} for equal-length orders of keys, trained
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
    """The key chains that the planned cells of one data seed and method
    train through, and the leaves those cells have yet to take.

    The first planned cell trains the trie of every planned chain, and
    each cell then takes its chain's leaf; the plan keeps a leaf until the
    last planned cell of its chain has taken it. A chain outside the plan,
    or asked for after its last planned take, is trained alone; so is
    every chain of an empty plan. All cells of one plan must pass the same
    tasks, config, initial weights and seed, and no runner writes a leaf.
    """

    def __init__(self, chains=()):
        self._uses = Counter(chains)  # planned cells per chain yet to take its leaf
        self._leaves: dict = {}

    def take(self, chain, make_root, train_stack):
        """The leaf of `chain` in the trie trained by
        `train_trie(chains, make_root(), train_stack)`. The root is built
        only when this call trains: by the plan's first cell and by a
        chain trained alone, not by a look-up."""
        if chain not in self._uses:
            return train_trie([chain], make_root(), train_stack)[chain]
        if not self._leaves:  # the plan's first cell
            self._leaves = train_trie(list(self._uses), make_root(), train_stack)
        self._uses[chain] -= 1
        if self._uses[chain]:
            return self._leaves[chain]
        del self._uses[chain]
        return self._leaves.pop(chain)
