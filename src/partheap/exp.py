'''Heap with exponentially bounded set sizes.

Sets S_1..S_l obey a single size invariant, |S_i| < 3 * 2^i, with no
lower bounds and empty sets allowed anywhere.  A decrease_key whose new
key is still at or above its set's lower pivot leaves the node where it
is.  When an insert or a decrease_key that moves a node fills a set to
3 * 2^i, the whole set is pushed down one level; the push recurses
while the receiving level is itself too big to absorb it.  delete_min
refills an empty S_1 by recursively pulling the smallest elements up,
and trims the last set whenever the level count exceeds 1 + lg n,
which keeps it logarithmic.

Pivots take LP's layout, ``pivots[j]`` bounding ``sets[j + 1]`` below,
so decrease-key shares ``core.relocation`` with LPHeap.  A pivot is
the TOP sentinel when a pull's swap branch empties a set whose lower
bound can no longer be stated from live keys.
'''

from .core import (EmptyHeapError, LinkedSet, PartitionHeap, pivot_search,
                   relocation)
from .selection import split_by_rank


class _Top:
    '''Pivot sentinel comparing above every key.'''

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return other is not TOP

    def __repr__(self):
        return 'TOP'


TOP = _Top()


class ExpHeap(PartitionHeap):
    '''Addressable min-heap over exponentially capped sets.

    API: insert(key) -> handle, delete_min(), decrease_key(handle, key).
    The rank selections done by pull use deterministic selection: a
    sampled bracket with a median-of-medians fallback.
    '''

    kind = 'exp'

    def __init__(self):
        super().__init__()
        self.sets = [LinkedSet()]
        self.pivots = []  # pivots[j] bounds sets[j + 1] below

    @property
    def num_sets(self):
        return len(self.sets)

    def _find_pos(self, key):
        '''0-based index of the set whose pivots bracket ``key``.'''
        return pivot_search(self.pivots, key, self.meter) - 1

    # ------------------------------------------------------------------
    # public operations

    def insert(self, user_key):
        '''Add an element; return its handle.'''
        meter = self.meter
        led = self.ledger
        node = self._node(user_key)
        c0 = meter.comparisons
        pos = self._find_pos(node.key)
        self.last_search_comparisons = meter.comparisons - c0
        s = self.sets[pos]
        s.append(node, meter)
        self.n += 1
        if led is not None:
            led.record('insert', after=self.potential())
        if s.size == 3 << (pos + 1):
            self._push_from(pos + 1)
        return node

    def delete_min(self):
        '''Remove and return the smallest user key.'''
        if self.n == 0:
            raise EmptyHeapError('delete_min on empty heap')
        meter = self.meter
        led = self.ledger
        if self.sets[0].size == 0:
            self._pull_into_first()
        ell = len(self.sets)
        s1 = self.sets[0]
        node = s1.min_node(meter)
        s1.remove(node, meter)
        node.alive = False
        self.n -= 1
        if self.n == 0:
            # nothing live: restart from the single-set shape
            self.sets = [LinkedSet()]
            self.pivots = []
        elif (1 << (len(self.sets) - 1)) > self.n:
            last = self.sets.pop()
            self.pivots.pop()
            self.sets[-1].concat(last, meter)
            assert (1 << (len(self.sets) - 1)) <= self.n
        if led is not None:
            led.record('delete_min', a=ell, after=self.potential())
        return node.key[0]

    def decrease_key(self, node, user_key):
        '''Lower the key of a live handle.  Sets are unordered, so a key
        still at or above its set's lower pivot keeps its place in the
        list; a lower one moves to a set nearer the front, found by a
        search of the pivots before its old set.'''
        key = self._lowered(node, user_key)
        meter = self.meter
        led = self.ledger
        src, dst, self.last_search_comparisons = relocation(
            self.pivots, node.key, key, meter)
        node.key = key
        if dst == src:
            if led is not None:
                led.record('decrease_key', after=led.phi)
            return
        self.sets[src - 1].remove(node, meter)
        s = self.sets[dst - 1]
        s.append(node, meter)
        if led is not None:
            led.record('decrease_key', after=self.potential())
        if s.size == 3 << dst:
            self._push_from(dst)

    def potential(self):
        '''(insert, push, pull) potential component sums; pure.'''
        ins = 0
        push = 0
        pull = 0
        prefix = 0
        i = 1
        half = 1  # 2^(i-1)
        for s in self.sets:
            size = s.size
            over = size - 5 * half
            if over > 0:
                ins += over
            push += size >> i
            prefix += size
            gap = half - prefix
            if gap > 0:
                pull += gap
            i += 1
            half <<= 1
        return (ins, push, pull)

    # ------------------------------------------------------------------
    # restructuring

    def _push_from(self, i):
        '''Push the full set at level i downward; each level either
        absorbs the arriving set, or is displaced and pushed further.
        All minima come before the first write, so a raising key
        comparison leaves every set and pivot as it was.'''
        meter = self.meter
        led = self.ledger
        sets = self.sets
        minima = []  # of the sets moving from levels i..j-1 to i+1..j
        j = i
        while True:
            moving = sets[j - 1]
            assert (1 << j) <= moving.size <= (3 << j)
            minima.append(moving.min_node(meter).key)
            j += 1
            if j > len(sets) or sets[j - 1].size < (1 << j):
                break
        moved = sets[i - 1:j - 1]
        if j > len(sets):
            sets.append(moved[-1])
        else:
            sets[j - 1].concat(moved[-1], meter)
        sets[i:j - 1] = moved[:-1]
        sets[i - 1] = LinkedSet()
        self.pivots[i - 1:j - 1] = minima
        if led is not None:
            led.record('push', a=i, b=j, after=self.potential())

    def _pull_into_first(self):
        led = self.ledger
        if led is not None:
            m = 1
            while self.sets[m - 1].size == 0:
                m += 1
            src = self.sets[m - 1].size
            depth = 0 if src == 1 else min(m - 1, (src - 1).bit_length())
        self._pull(1)
        if led is not None:
            led.record('pull', a=depth, b=m, after=self.potential())

    def _pull(self, i):
        '''Refill empty S_i from below: swap a small next set up whole,
        or select its 2^(i-1) smallest elements.'''
        meter = self.meter
        sets = self.sets
        if sets[i].size == 0:
            self._pull(i + 1)
        nxt = sets[i]
        if nxt.size <= (1 << (i - 1)):
            sets[i - 1], sets[i] = nxt, sets[i - 1]
            meter.list_links += 1
            pivots = self.pivots
            pivots[i - 1] = pivots[i] if i < len(pivots) else TOP
        else:
            low, high, boundary = split_by_rank(nxt, 1 << (i - 1), meter)
            sets[i - 1] = low
            sets[i] = high
            self.pivots[i - 1] = boundary

    def __repr__(self):
        return 'ExpHeap(n=%d, sets=%r)' % (self.n,
                                           [s.size for s in self.sets])
