'''Lazy-partition heap.

Elements live in unordered sets S_1..S_l separated by pivots; only
delete_min restructures.  It removes the minimum from S_1, runs a
pivot-forgetting pass that concatenates any adjacent pair of sets
holding fewer elements together than the number of elements before
them, then splits the front set at the larger median.  That single rule
keeps l <= 2*lg(n) + 1, so the binary search done by insert and
decrease_key costs O(lg lg n) comparisons.  A decrease_key whose new
key is still at or above its set's lower pivot leaves the node where
it is, since sets are unordered.

The reported potential is sum of LP_BETA * max(0, |S_j| -
elements_before_j); the constant lives in ``potential`` next to the
budgets it scales.
'''

# core.pivot_search is looked up per call, so a wrapper installed on it
# (perfbench --trace 1) sees LP's searches too
from . import core
from .core import EmptyHeapError, KeyOrderError, LinkedSet, PartitionHeap
from .potential import LP_BETA
from .selection import split_by_rank


class LPHeap(PartitionHeap):
    '''Addressable min-heap with O(lg lg n) insert/decrease_key and
    O(lg n) delete_min, all amortized.

    ``insert`` returns a stable handle accepted by ``decrease_key``,
    ``increase_key`` and ``delete``.  delete_min splits at the larger
    median, found by deterministic selection: a sampled bracket with a
    median-of-medians fallback.
    '''

    kind = 'lp'

    def __init__(self):
        super().__init__()
        self.sets = []
        self.pivots = []  # pivots[j] bounds sets[j + 1] below
        self.cached_min = None
        self._fresh_partition = True
        self.last_delete_min_touches = 0

    @property
    def num_sets(self):
        return len(self.sets)

    # ------------------------------------------------------------------
    # public operations

    def insert(self, user_key):
        '''Add an element; return its handle.'''
        meter = self.meter
        led = self.ledger
        node = self._node(user_key)
        key = node.key
        # search and compare before any change, so a key that does not
        # compare with the stored ones leaves the heap as it was; a key
        # past S_1 is at or above pivots[0], so it is not the minimum
        c0 = meter.comparisons
        pos = core.pivot_search(self.pivots, key, meter)
        self.last_search_comparisons = meter.comparisons - c0
        cached = self.cached_min
        new_min = cached is None
        if pos == 1 and not new_min:
            new_min = key < cached.key
            meter.comparisons += 1
        if not self.sets:
            self.sets.append(LinkedSet())
        self.sets[pos - 1].append(node, meter)
        self.n += 1
        if new_min:
            self.cached_min = node
        self._fresh_partition = False
        if led is not None:
            led.record('insert', after=(self.potential_phi(),))
        return node

    def find_min(self):
        '''Smallest user key, in O(1).'''
        if self.n == 0:
            raise EmptyHeapError('find_min on empty heap')
        return self.cached_min.key[0]

    def delete_min(self):
        '''Remove and return the smallest user key.'''
        if self.n == 0:
            raise EmptyHeapError('delete_min on empty heap')
        meter = self.meter
        led = self.ledger
        s1 = self.sets[0]
        s1_before = s1.size
        ell_before = len(self.sets)
        node = self.cached_min
        touches = s1_before
        s1.remove(node, meter)
        node.alive = False
        self.n -= 1
        self._forget_pivots()
        try:
            if self.sets and self.sets[0].size >= 2:
                # split the front set, S_1 or the set that replaced an
                # emptied S_1: the potential it releases pays for the
                # minimum rescan below
                touches += self._split_first()
            rescan = self.sets[0].min_node(meter) if self.n else None
        except BaseException:
            # a comparison raised: the split put its input back, so put
            # the minimum back in front, below every key, and leave the
            # heap as a valid heap without the op
            node.alive = True
            self.sets[0].append(node)
            self.n += 1
            self._fresh_partition = False
            if led is not None:
                led.phi = (self.potential_phi(),)
            raise
        self.last_delete_min_touches = touches
        self.cached_min = rescan
        if led is not None:
            led.record('delete_min', a=s1_before, b=ell_before,
                       after=(self.potential_phi(),))
        return node.key[0]

    def decrease_key(self, node, user_key):
        '''Lower the key of a live handle.  Sets are unordered, so a key
        still at or above its set's lower pivot keeps its place in the
        list; a lower one moves toward the front, to the set found by a
        search of the pivots before its old set.'''
        key = self._lowered(node, user_key)
        meter = self.meter
        led = self.ledger
        src, dst, self.last_search_comparisons = core.relocation(
            self.pivots, node.key, key, meter)
        node.key = key
        if dst != src:
            self.sets[src - 1].remove(node, meter)
            self.sets[dst - 1].append(node, meter)
            self._fresh_partition = False
        if dst == 1:
            # a key in a later set is at or above pivots[0], so above
            # every key of S_1, where the cached minimum lies
            meter.comparisons += 1
            if key < self.cached_min.key:
                self.cached_min = node
        if led is not None:
            led.record('decrease_key', after=(
                led.phi if dst == src else (self.potential_phi(),)))

    def delete(self, node):
        '''Remove an arbitrary live element by handle.'''
        self._check(node, 'delete')
        was_min = self._detach(node)
        node.alive = False
        self.n -= 1
        self._settle(was_min)

    def increase_key(self, node, user_key):
        '''Raise the key of a live handle: move it to the set its new
        key belongs in (same tie-break counter), then settle as delete
        does, since the move can empty a set or make a pair fire the
        concat rule.'''
        self._check(node, 'increase_key')
        if not user_key >= node.key[0]:
            raise KeyOrderError('increase_key from %r to smaller %r'
                                % (node.key[0], user_key))
        was_min = self._detach(node)
        node.key = (user_key, node.key[1])
        pos = core.pivot_search(self.pivots, node.key, self.meter)
        self.sets[pos - 1].append(node, self.meter)
        self._settle(was_min)

    @classmethod
    def build(cls, items):
        '''Heap over ``items`` in one shot: everything lands in S_1.'''
        heap = cls()
        meter = heap.meter
        s = LinkedSet()
        for user_key in items:
            s.append(heap._node(user_key), meter)
        if s.size:
            heap.sets = [s]
            heap.n = s.size
            heap.cached_min = s.min_node(meter)
        return heap

    def potential_phi(self):
        '''Sum of LP_BETA * max(0, |S_j| - elements_before_j); pure.'''
        total = 0
        prefix = 0
        for s in self.sets:
            over = s.size - prefix
            if over > 0:
                total += over
            prefix += s.size
        return LP_BETA * total

    # ------------------------------------------------------------------
    # restructuring

    def _detach(self, node):
        '''Unlink a checked node; return whether it was the cached min.'''
        pos = core.pivot_search(self.pivots, node.key, self.meter)
        self.sets[pos - 1].remove(node, self.meter)
        return node is self.cached_min

    def _settle(self, was_min):
        '''Sweep once, rescan S_1 if the minimum left it, and keep the
        ledger's phi current: delete and increase_key record no row.'''
        self._forget_pivots()
        if self.n == 0:
            self.cached_min = None
        elif was_min:
            self.cached_min = self.sets[0].min_node(self.meter)
        if self.ledger is not None:
            self.ledger.phi = (self.potential_phi(),)

    def _split_first(self):
        '''Split the first set at the larger median: its ceil(s/2)
        smallest stay in front and the boundary key becomes a new pivot.
        Returns the number of elements the split touched.'''
        s = self.sets[0]
        size = s.size
        low, high, pivot = split_by_rank(s, (size + 1) // 2, self.meter)
        self.sets[0:1] = [low, high]
        self.pivots.insert(0, pivot)
        return size

    def _forget_pivots(self):
        '''Drop empty sets, then sweep once left to right concatenating
        any adjacent pair that is smaller than its prefix.  The merged
        set keeps absorbing successors until the rule no longer fires.
        O(l) plus O(1) per concatenation.

        delete_min sweeps before it splits the front set, and gets the
        sets that splitting first and then sweeping would give.  The
        pair (S_1, S_2) has prefix 0, so it never fires.  Every later
        pair sees the same prefix whether S_1 is split or not.  And the
        split cannot make a pair fire: it turns S_1 (s elements) into
        low (ceil(s/2)) and high (floor(s/2)); the pair (low, high) has
        prefix 0, and the pair (high, S_2) has prefix |low| with
        high + |S_2| >= low, since S_2 is nonempty and low exceeds high
        by at most one.  A split after the sweep leaves no pair that
        satisfies the rule, so one sweep is enough.
        '''
        sets = self.sets
        pivots = self.pivots
        meter = self.meter
        new_sets = []
        new_pivots = []
        prefix = 0  # elements strictly before the current tail set
        for i, s in enumerate(sets):
            if s.size == 0:
                continue
            if not new_sets:
                new_sets.append(s)
                continue
            tail = new_sets[-1]
            if tail.size + s.size < prefix:
                tail.concat(s, meter)
            else:
                prefix += tail.size
                new_pivots.append(pivots[i - 1])
                new_sets.append(s)
        self.sets = new_sets
        self.pivots = new_pivots
        self._fresh_partition = True

    def __repr__(self):
        return 'LPHeap(n=%d, sets=%r)' % (self.n,
                                          [s.size for s in self.sets])
