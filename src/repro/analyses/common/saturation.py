"""Reads-from saturation (the "saturation" rules of Section 1.1).

Several predictive analyses maintain, besides a partial order ``P``, a
reads-from assignment ``rf`` mapping every read to the write it observes.
For ``P`` and ``rf`` to be mutually consistent, additional orderings are
*forced*:

* ``rf(r) -> r`` -- a read is ordered after its writer;
* for any other write ``w'`` to the same variable:

  - if ``w' ->* r`` already, then ``w'`` must also precede the writer:
    insert ``w' -> rf(r)``;
  - if ``rf(r) ->* w'`` already, then the read must precede the competing
    write: insert ``r -> w'``.

Applying these rules until a fixed point is the saturation step used by
consistency checking, race prediction, and the memory-bug analyses (see the
citations in Section 1.1 of the paper).  Because the inserted orderings land
between arbitrary events of the trace, this is the archetypal *non-streaming*
workload CSSTs were designed for.

The rules are not applied competitor by competitor.  Writes on one chain are
totally ordered, so per chain ``c`` only two competitors matter: the latest
write of ``c`` at or before ``predecessor(r, c)`` (every earlier write of
``c`` then precedes the writer by program order) and the earliest write of
``c`` at or after ``successor(rf(r), c)`` (every later write of ``c`` then
follows the read).  A :class:`WriteIndex` holds each variable's write
indexes per chain, sorted, so both are one bisection.  A read costs
O(k) partial-order queries plus O(k log n) bisection steps, independent of
how many writes its variable has; the fixed point, and with it every later
reachability answer, is the same as applying the rules to every competitor.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.interface import PartialOrder
from repro.errors import AnalysisError
from repro.trace.event import Event

#: One chain's writes of a variable: ``(chain, sorted indexes, events)``.
ChainWrites = Tuple[int, List[int], List[Event]]


class CycleDetected(AnalysisError):
    """Raised when saturation would create a cycle.

    A cycle means the current reads-from assignment is infeasible: there is
    no interleaving in which every read observes its assigned writer.
    """

    def __init__(self, source: Event, target: Event) -> None:
        super().__init__(f"ordering {source} -> {target} closes a cycle")
        self.source = source
        self.target = target


class WriteIndex:
    """Each variable's writes, split by chain and sorted by index.

    Built once per run from ``writes_by_variable``; :meth:`chains` returns
    the per-chain lists the saturation rules and witness checks bisect.
    """

    def __init__(self, writes_by_variable: Mapping[object, List[Event]]) -> None:
        self._chains: Dict[object, List[ChainWrites]] = {}
        for variable, writes in writes_by_variable.items():
            per_chain: Dict[int, List[Event]] = {}
            for write in writes:
                if write.is_write:
                    per_chain.setdefault(write.thread, []).append(write)
            entries: List[ChainWrites] = []
            for chain in sorted(per_chain):
                events = sorted(per_chain[chain], key=lambda event: event.index)
                entries.append((chain, [event.index for event in events], events))
            self._chains[variable] = entries

    def chains(self, variable) -> List[ChainWrites]:
        """``(chain, indexes, events)`` for every chain writing ``variable``."""
        return self._chains.get(variable, [])


class SaturationEngine:
    """Applies the reads-from saturation rules over a partial order.

    Parameters
    ----------
    order:
        The partial-order backend holding ``P``.
    writes_by_variable:
        All write events, grouped by variable; indexed once into
        :attr:`write_index` to locate competing writes for each read.
    """

    def __init__(self, order: PartialOrder,
                 writes_by_variable: Mapping[object, List[Event]]) -> None:
        self._order = order
        self.write_index = WriteIndex(writes_by_variable)

    # ------------------------------------------------------------------ #
    # Edge insertion with cycle detection
    # ------------------------------------------------------------------ #
    def add_ordering(self, source: Event, target: Event) -> bool:
        """Insert ``source -> target`` unless it is already implied; raise
        :class:`CycleDetected` if the reverse ordering holds instead.
        Returns ``True`` if a new cross-chain edge was inserted."""
        if source.thread == target.thread:
            if source.index > target.index:
                raise CycleDetected(source, target)
            return False
        order = self._order
        if order.reachable(source.node, target.node):
            return False
        if order.reachable(target.node, source.node):
            raise CycleDetected(source, target)
        order.insert_edge(source.node, target.node)
        return True

    # ------------------------------------------------------------------ #
    # Saturation
    # ------------------------------------------------------------------ #
    def saturate(self, reads_from: Mapping[Event, Optional[Event]],
                 max_rounds: int = 16) -> int:
        """Apply the saturation rules until a fixed point (or ``max_rounds``).

        Saturation proceeds one memory location at a time (all reads of a
        variable are handled before moving to the next), as location-centric
        predictive analyses do.  The orderings this derives therefore land
        between arbitrary events of the trace rather than following the
        trace order -- the non-streaming insertion pattern the paper's
        motivating example describes.

        A round skips every read that last inserted nothing while the order
        was as it is now (no insertion since): its rules would find nothing
        again, so the insertions, and the rounds, are those of full passes.

        Returns the number of orderings inserted.  Raises
        :class:`CycleDetected` if the assignment is infeasible.
        """
        by_location = sorted(
            (item for item in reads_from.items() if item[1] is not None),
            key=lambda item: (str(item[0].variable), item[0].thread, item[0].index),
        )
        inserted = 0
        # Per read, the insertion count at which its rules last found
        # nothing (-1: never, or they inserted).
        clean_at = [-1] * len(by_location)
        for _ in range(max_rounds):
            before = inserted
            for position, (read, write) in enumerate(by_location):
                if clean_at[position] == inserted:
                    continue
                added = self._saturate_read(read, write)
                inserted += added
                clean_at[position] = -1 if added else inserted
            if inserted == before:
                break
        return inserted

    def _saturate_read(self, read: Event, write: Event) -> int:
        order = self._order
        add_ordering = self.add_ordering
        inserted = 1 if add_ordering(write, read) else 0
        read_node, write_node = read.node, write.node
        for chain, indexes, events in self.write_index.chains(read.variable):
            # The latest write of the chain before the read must precede
            # the writer.
            if chain == read.thread:
                latest = read.index
            else:
                latest = order.predecessor(read_node, chain)
            if latest is not None:
                position = bisect_right(indexes, latest) - 1
                if position >= 0 and add_ordering(events[position], write):
                    inserted += 1
            # The earliest write of the chain after the writer must follow
            # the read.
            if chain == write.thread:
                earliest = write.index + 1
            else:
                earliest = order.successor(write_node, chain)
            if earliest is not None:
                position = bisect_left(indexes, earliest)
                if position < len(indexes) and add_ordering(read, events[position]):
                    inserted += 1
        return inserted
