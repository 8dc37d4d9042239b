'''Known-good reference models for differential testing.

OracleHeap is a heapq-backed addressable heap with lazy invalidation:
correct by construction, fast, and sharing the package's key semantics
(per-heap insertion counter as tie-break, preserved by decrease_key).

SimpleLazyHeap re-implements the lazy-partition semantics over plain
Python lists with sorted() as its selection routine, so it shares no
machinery with LPHeap.  It exists purely as a second, independent
route for cross-checking LPHeap's outputs.
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

    def __init__(self, selection='det', seed=0):
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


class _RefNode:
    __slots__ = ('key', 'alive')

    def __init__(self, key):
        self.key = key
        self.alive = True


class SimpleLazyHeap:
    '''List-backed lazy-partition model (selection via sorted()).

    Behaviorally equivalent to LPHeap on every trace; structurally
    independent of it.  Quadratic worst case; test use only.
    '''

    kind = 'lp-reference'

    def __init__(self):
        self.sets = [[]]
        self.pivots = []
        self.n = 0
        self._seq = 0

    def __len__(self):
        return self.n

    def _find_set(self, key):
        # rightmost pivot <= key wins; below all pivots means set 0
        lo = 0
        hi = len(self.pivots)
        while lo < hi:
            mid = (lo + hi) >> 1
            if key < self.pivots[mid]:
                hi = mid
            else:
                lo = mid + 1
        return self.sets[lo]

    def insert(self, user_key):
        node = _RefNode((user_key, self._seq))
        self._seq += 1
        self._find_set(node.key).append(node)
        self.n += 1
        return node

    def find_min(self):
        if self.n == 0:
            raise EmptyHeapError('find_min on empty heap')
        return min(nd.key for nd in self.sets[0])[0]

    def delete_min(self):
        if self.n == 0:
            raise EmptyHeapError('delete_min on empty heap')
        first = self.sets[0]
        node = min(first, key=lambda nd: nd.key)
        first.remove(node)
        node.alive = False
        self.n -= 1
        if len(first) >= 2:
            ordered = sorted(nd.key for nd in first)
            pivot = ordered[-(-len(ordered) // 2)]  # larger-median rank
            low = [nd for nd in first if nd.key < pivot]
            high = [nd for nd in first if nd.key >= pivot]
            self.sets[0:1] = [low, high]
            self.pivots.insert(0, pivot)
        self._forget_pivots()
        return node.key[0]

    def decrease_key(self, node, user_key):
        if not node.alive:
            raise DeadHandleError('decrease_key on deleted element')
        if not user_key <= node.key[0]:
            raise KeyOrderError('decrease_key from %r to larger %r'
                                % (node.key[0], user_key))
        self._find_set(node.key).remove(node)
        node.key = (user_key, node.key[1])
        self._find_set(node.key).append(node)

    def delete(self, node):
        if not node.alive:
            raise DeadHandleError('delete on deleted element')
        self._find_set(node.key).remove(node)
        node.alive = False
        self.n -= 1
        self._forget_pivots()

    def _forget_pivots(self):
        new_pivots = []
        new_sets = [self.sets[0]]
        outside = 0
        for pivot, s in zip(self.pivots, self.sets[1:]):
            last = new_sets[-1]
            if len(last) == 0 or outside > len(last) + len(s):
                last.extend(s)
            else:
                outside += len(last)
                new_pivots.append(pivot)
                new_sets.append(s)
        if len(new_sets[-1]) == 0 and len(new_sets) >= 2:
            new_pivots.pop()
            new_sets.pop()
        self.pivots = new_pivots
        self.sets = new_sets
