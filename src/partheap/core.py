'''Shared primitives for partition-based heaps.

All heaps in this package store their elements in unordered buckets
("sets") backed by intrusive doubly-linked lists, separated by pivot
keys.  This module provides the pieces they share:

  - keys: ``(user_key, seq)`` tuples, where ``seq`` is a per-heap
    insertion counter.  The pair gives a strict total order, so two
    live elements never compare equal even when their user keys do.
  - Node / LinkedSet: the intrusive list, ``first``/``last``/``size``
    with no sentinel nodes.  A node is also the stable handle returned
    by ``insert``; it survives every restructuring and is what
    ``decrease_key`` and ``delete`` take.
  - PartitionHeap: the API boundary LPHeap, FHTNGHeap and ExpHeap
    inherit.  It owns their common state and the checks every public
    operation makes before it mutates anything: a key that is not
    equal to itself (NaN) is refused at insert, a handle must belong
    to this heap and be live, and decrease-key never raises a key.
  - pivot_search: counted binary search over a heap's sorted pivot
    list, or a ``lo:hi`` slice of it, the one pivot search every heap
    uses.  ``lower_search`` places a lowered key among the pivots
    below its old set; every heap's decrease-key places with it.
    ``relocation`` is LPHeap's and ExpHeap's whole decrease-key search
    over their shared layout, ``pivots[j]`` bounding ``sets[j + 1]``
    below: the source search, the stay test, then ``lower_search``.
  - CostMeter: plain counters that define the "actual cost" used by the
    tests; each LinkedSet operation charges its own cost to a meter.
'''


class HeapError(Exception):
    '''Base class for heap usage errors.'''


class EmptyHeapError(HeapError):
    '''Raised by delete_min / find_min on an empty heap.'''


class DeadHandleError(HeapError):
    '''Raised when an operation dereferences a handle whose element
    was already deleted.'''


class ForeignHandleError(HeapError):
    '''Raised when an operation is given a handle that another heap
    returned.'''


class KeyOrderError(HeapError):
    '''Raised when insert is given a key that is not equal to itself,
    such as NaN; when decrease_key is asked to increase a key (or
    increase_key to decrease one); or when either is asked to move a
    key to one that does not compare with the old one, such as NaN.'''


class Node:
    '''One stored element; doubles as the stable handle.

    ``key`` is a ``(user_key, seq)`` tuple.  ``alive`` turns False when
    the element leaves the heap for good; restructuring never touches it.
    ``owner`` is the heap that made the node (None for a bare ``Node(key)``).
    '''

    __slots__ = ('key', 'prev', 'next', 'alive', 'owner')

    def __init__(self, key, owner=None):
        self.key = key
        self.prev = None
        self.next = None
        self.alive = True
        self.owner = owner

    def __repr__(self):
        state = '' if self.alive else ', dead'
        return 'Node(%r%s)' % (self.key, state)


class LinkedSet:
    '''Intrusive doubly-linked list with end pointers and an explicit size.

    ``first`` and ``last`` are the end nodes, both None when the set is
    empty; ``first.prev`` and ``last.next`` are None.  There are no
    sentinel nodes, so nothing in an empty set points back at it and a
    discarded set is freed by reference counting alone.

    append / remove / concat touch O(1) nodes each.  Nodes keep their
    identity across every operation, which is what makes handles stable.
    Given a ``meter``, each operation charges its own cost to it: append
    one node move and one link, remove and concat one link, min_node
    its comparisons.
    '''

    __slots__ = ('first', 'last', 'size')

    def __init__(self):
        self.first = None
        self.last = None
        self.size = 0

    def __len__(self):
        return self.size

    def append(self, node, meter=None):
        if meter is not None:
            meter.node_moves += 1
            meter.list_links += 1
        last = self.last
        node.prev = last
        node.next = None
        if last is None:
            self.first = node
        else:
            last.next = node
        self.last = node
        self.size += 1

    def remove(self, node, meter=None):
        if meter is not None:
            meter.list_links += 1
        prev = node.prev
        nxt = node.next
        if prev is None:
            self.first = nxt
        else:
            prev.next = nxt
        if nxt is None:
            self.last = prev
        else:
            nxt.prev = prev
        node.prev = None
        node.next = None
        self.size -= 1

    def concat(self, other, meter=None):
        '''Splice all of ``other`` onto the end of this set (O(1)).

        ``other`` is left empty.  Node identities are preserved.
        '''
        if meter is not None:
            meter.list_links += 1
        first = other.first
        if first is None:
            return
        last = self.last
        if last is None:
            self.first = first
        else:
            last.next = first
            first.prev = last
        self.last = other.last
        self.size += other.size
        other.first = other.last = None
        other.size = 0

    def iter_nodes(self):
        at = self.first
        while at is not None:
            nxt = at.next
            yield at
            at = nxt

    def keys(self):
        '''All keys in list order (one pass).'''
        out = []
        at = self.first
        while at is not None:
            out.append(at.key)
            at = at.next
        return out

    def min_node(self, meter=None):
        '''Scan for the node with the smallest key (size - 1 comparisons).'''
        best = self.first
        at = best.next
        while at is not None:
            if at.key < best.key:
                best = at
            at = at.next
        if meter is not None and self.size > 1:
            meter.comparisons += self.size - 1
        return best

    def __repr__(self):
        return 'LinkedSet(size=%d)' % self.size


class PartitionHeap:
    '''The API boundary shared by the partition heaps.

    Subclasses keep their public operations and restructuring in their
    own class bodies; this class holds the state they all start with
    and the checks their public operations make before any mutation.
    '''

    def __init__(self):
        self.n = 0
        self.meter = CostMeter()
        self.ledger = None
        self.last_search_comparisons = 0
        self._seq = 0

    def __len__(self):
        return self.n

    def _node(self, user_key):
        '''A new handle keyed ``(user_key, seq)``.  A key that is not
        equal to itself (NaN) would break the total order, so it is
        refused.  The test is ``!=``, not an ordering comparison, so it
        is not a key comparison the meter or a counting key sees.'''
        if user_key != user_key:
            raise KeyOrderError('key %r is not equal to itself' % (user_key,))
        node = Node((user_key, self._seq), self)
        self._seq += 1
        return node

    def _lowered(self, node, user_key):
        '''The key ``node`` gets from decrease_key(node, user_key), after
        checking the handle and the order rule.  The checks are inline,
        so a decrease_key pays one extra call for them.'''
        if node.owner is not self:
            raise ForeignHandleError("decrease_key on another heap's handle")
        if not node.alive:
            raise DeadHandleError('decrease_key on deleted element')
        key = node.key
        if not user_key <= key[0]:
            raise KeyOrderError('decrease_key from %r to larger %r'
                                % (key[0], user_key))
        return (user_key, key[1])

    def _check(self, node, op):
        '''Refuse a handle of another heap or of a deleted element.'''
        if node.owner is not self:
            raise ForeignHandleError("%s on another heap's handle" % op)
        if not node.alive:
            raise DeadHandleError('%s on deleted element' % op)


class CostMeter:
    '''Counters defining "actual cost" for the instrumented tests.

    comparisons        key-versus-key comparisons (binary searches,
                       min scans, selection, partition passes)
    node_moves         nodes relocated between lists, one per append
    list_links         O(1) splices, charged by LinkedSet append/remove/
                       concat, and by hand for a whole set's slot move
    selection_elements elements handled by selection/partition passes,
                       counted once per pass over a subarray
    '''

    __slots__ = ('comparisons', 'node_moves', 'list_links',
                 'selection_elements')

    def __init__(self):
        self.comparisons = 0
        self.node_moves = 0
        self.list_links = 0
        self.selection_elements = 0

    def snapshot(self):
        return (self.comparisons, self.node_moves, self.list_links,
                self.selection_elements)

    def __repr__(self):
        return ('CostMeter(cmp=%d, moves=%d, links=%d, sel=%d)' %
                self.snapshot())


def pivot_search(pivots, key, meter=None, lo=0, hi=None):
    '''Locate ``key`` among sorted ``pivots``; return a 1-based position.

    Position ``i`` means the key belongs to the i-th interval: every
    pivot at index < i-1 is <= key and every later pivot is > key (the
    lower end of each interval is inclusive).  An empty pivot array
    returns 1.  As with ``bisect``'s ``lo`` and ``hi``, only
    ``pivots[lo:hi]`` is searched: the pivots before ``lo`` count as
    <= key and those from ``hi`` on (default ``len(pivots)``) as > key,
    so the result lies in [lo + 1, hi + 1].  Uses at most
    ceil(lg(hi - lo + 1)) key comparisons, all counted.
    '''
    if hi is None:
        hi = len(pivots)
    comps = 0
    while lo < hi:
        mid = (lo + hi) >> 1
        comps += 1
        if key < pivots[mid]:
            hi = mid
        else:
            lo = mid + 1
    if meter is not None:
        meter.comparisons += comps
    return lo + 1


def lower_search(pivots, key, meter, hi):
    '''Position of a lowered ``key`` among ``pivots[:hi]``, the pivots
    below its old set, as ``pivot_search`` gives it.  ``pivots[0]`` is
    tested first, since a decreased key often goes to the front, and
    only a key at or above it searches ``pivots[1:hi]``.  With ``hi``
    0 there is nothing to compare and the position is 1.'''
    if not hi:
        return 1
    meter.comparisons += 1
    if key < pivots[0]:
        return 1
    return pivot_search(pivots, key, meter, 1, hi)


def relocation(pivots, old_key, key, meter):
    '''Decrease-key's search: ``(src, dst, cost)`` for a node moving
    from ``old_key`` down to ``key``.  ``src`` is the position of its
    set and ``dst`` the one it belongs in; sets are unordered, so a key
    still at or above its set's lower pivot ``pivots[src - 2]`` stays
    (``dst == src``) after that one comparison.  A lower key goes to
    ``lower_search``.  ``cost`` is the larger of the two searches'
    comparison counts.'''
    c0 = meter.comparisons
    src = pivot_search(pivots, old_key, meter)
    c1 = meter.comparisons
    dst = src
    if src > 1:
        meter.comparisons += 1
        if key < pivots[src - 2]:
            dst = lower_search(pivots, key, meter, src - 2)
    return src, dst, max(c1 - c0, meter.comparisons - c1)
