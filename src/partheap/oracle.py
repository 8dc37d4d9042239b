'''The known-good reference model for differential testing.

OracleHeap is a heapq-backed addressable heap with lazy invalidation:
correct by construction, fast, and sharing the package's key semantics
(per-heap insertion counter as tie-break, preserved by decrease_key
and increase_key).  It offers LPHeap's whole API apart from ``build``:
insert, find_min, delete_min, decrease_key, delete and increase_key.

Entries are ``(key, push, handle)`` tuples, which heapq compares in
C.  ``push`` numbers every push, so no two entries tie, even when a
key change returns to a key that a stale entry still holds.  An entry
is live while its handle is alive and names its push.
'''

import heapq

from .core import (CostMeter, DeadHandleError, EmptyHeapError,
                   KeyOrderError)


class OracleHandle:
    '''Key ``(user_key, seq)``, live entry's push, and liveness.'''

    __slots__ = ('key', 'push', 'alive')

    def __init__(self):
        self.key = None
        self.push = -1
        self.alive = True


class OracleHeap:
    '''Addressable min-heap on heapq with stale-entry invalidation.'''

    kind = 'oracle'

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._pushes = 0
        self.n = 0
        self.meter = CostMeter()

    def __len__(self):
        return self.n

    def _push(self, handle, key):
        '''Give ``handle`` a live entry at ``key``; older ones go stale.
        The handle changes only once heappush has returned.'''
        push = self._pushes
        heapq.heappush(self._heap, (key, push, handle))
        self._pushes = push + 1
        handle.key = key
        handle.push = push

    def _top(self):
        '''Pop stale entries; return the handle of the live top.'''
        heap = self._heap
        while True:
            _, push, handle = heap[0]
            if handle.alive and handle.push == push:
                return handle
            heapq.heappop(heap)

    def insert(self, user_key):
        handle = OracleHandle()
        self._push(handle, (user_key, self._seq))
        self._seq += 1
        self.n += 1
        return handle

    def find_min(self):
        if self.n == 0:
            raise EmptyHeapError('find_min on empty heap')
        return self._top().key[0]

    def delete_min(self):
        if self.n == 0:
            raise EmptyHeapError('delete_min on empty heap')
        handle = self._top()
        heapq.heappop(self._heap)
        handle.alive = False
        self.n -= 1
        return handle.key[0]

    def decrease_key(self, handle, user_key):
        if not handle.alive:
            raise DeadHandleError('decrease_key on deleted element')
        old, seq = handle.key
        if not user_key <= old:
            raise KeyOrderError('decrease_key from %r to larger %r'
                                % (old, user_key))
        self._push(handle, (user_key, seq))

    def delete(self, handle):
        if not handle.alive:
            raise DeadHandleError('delete on deleted element')
        handle.alive = False
        self.n -= 1

    def increase_key(self, handle, user_key):
        if not handle.alive:
            raise DeadHandleError('increase_key on deleted element')
        old, seq = handle.key
        if not user_key >= old:
            raise KeyOrderError('increase_key from %r to smaller %r'
                                % (old, user_key))
        self._push(handle, (user_key, seq))
