'''The known-good reference model for differential testing.

OracleHeap is a heapq-backed addressable heap with lazy invalidation:
correct by construction, fast, and sharing the package's key semantics
(per-heap insertion counter as tie-break, preserved by decrease_key
and increase_key).  It offers LPHeap's whole API apart from ``build``:
insert, find_min, delete_min, decrease_key, delete and increase_key.
'''

import heapq

from .core import (CostMeter, DeadHandleError, EmptyHeapError,
                   KeyOrderError)


class _Entry:
    __slots__ = ('key', 'handle', 'stale')

    def __init__(self, key, handle):
        self.key = key
        self.handle = handle
        self.stale = False

    def __lt__(self, other):
        return self.key < other.key


class OracleHandle:
    __slots__ = ('entry', 'alive')

    def __init__(self, entry):
        self.entry = entry
        self.alive = True

    @property
    def key(self):
        return self.entry.key


class OracleHeap:
    '''Addressable min-heap on heapq with stale-entry invalidation.'''

    kind = 'oracle'

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.n = 0
        self.meter = CostMeter()
        self.last_search_comparisons = 0

    def __len__(self):
        return self.n

    def insert(self, user_key):
        entry = _Entry((user_key, self._seq), None)
        self._seq += 1
        handle = OracleHandle(entry)
        entry.handle = handle
        heapq.heappush(self._heap, entry)
        self.n += 1
        return handle

    def find_min(self):
        if self.n == 0:
            raise EmptyHeapError('find_min on empty heap')
        heap = self._heap
        while heap[0].stale:
            heapq.heappop(heap)
        return heap[0].key[0]

    def delete_min(self):
        if self.n == 0:
            raise EmptyHeapError('delete_min on empty heap')
        heap = self._heap
        entry = heapq.heappop(heap)
        while entry.stale:
            entry = heapq.heappop(heap)
        entry.handle.alive = False
        self.n -= 1
        return entry.key[0]

    def decrease_key(self, handle, user_key):
        if not handle.alive:
            raise DeadHandleError('decrease_key on deleted element')
        old = handle.entry
        if not user_key <= old.key[0]:
            raise KeyOrderError('decrease_key from %r to larger %r'
                                % (old.key[0], user_key))
        old.stale = True
        entry = _Entry((user_key, old.key[1]), handle)
        handle.entry = entry
        heapq.heappush(self._heap, entry)

    def delete(self, handle):
        if not handle.alive:
            raise DeadHandleError('delete on deleted element')
        handle.entry.stale = True
        handle.alive = False
        self.n -= 1

    def increase_key(self, handle, user_key):
        if not handle.alive:
            raise DeadHandleError('increase_key on deleted element')
        old = handle.entry
        if not user_key >= old.key[0]:
            raise KeyOrderError('increase_key from %r to smaller %r'
                                % (old.key[0], user_key))
        old.stale = True
        entry = _Entry((user_key, old.key[1]), handle)
        handle.entry = entry
        heapq.heappush(self._heap, entry)
