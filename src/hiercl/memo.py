"""States after arrival-order prefixes, shared by the cells of one sweep.

Seq and fed cells are seeded by arrival position, and a hier cell by its
sequence of group memberships, so two cells whose arrival orders share a
prefix pass through bitwise-identical states up to its end. A cell names
its prefixes by a chain of keys, one per task (seq, fed) or per group
(hier), each key encoding the whole prefix it ends; the runner resumes from
the deepest stored key of its chain and computes only the rest.
"""

from __future__ import annotations

from collections import Counter


def arrival_prefixes(order) -> list[tuple[int, ...]]:
    """Seq and fed keys: the arrival order up to and including each task."""
    order = tuple(int(t) for t in order)
    return [order[: i + 1] for i in range(len(order))]


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
