'''Slot-indexed heap with Fibonacci size bands.

Sets occupy numbered slots starting at 3.  A set present in slot i > 3
keeps its size strictly between F_i and F_{i+3} while the structure is
at rest; slot 3 has no lower bound.  Two structural rules bound the
slot layout: never three nonempty slots in a row, and never nine empty
slots in a row below the last nonempty slot.  Together the rules keep
the first nonempty slot at index <= 11, so that its set holds fewer
than F_14 = 377 elements, and keep the number of pivots logarithmic for
the binary searches done by insert and decrease_key.  A decrease_key whose new key is still at or
above its slot's pivot changes no slot size, so it neither moves the
node nor restores anything.

delete_min takes the minimum of the first nonempty slot.  A set of at
most 2 * FRONT = 16 nodes is scanned whole.  A larger one is scanned
once for its FRONT smallest nodes, kept in key order in ``_front``
with the set they came from in ``_front_set``, and later delete_mins
pop from that cache for as long as the first slot holds the same set
object.  The cache stays valid through:

  - delete_min's own removals, which pop it;
  - slides, merge_down and bottom_merge, which move the set or append
    the keys of later slots, all above every cached key;
  - arrivals above the largest cached key.  An insert or a decrease_key
    that places a key in the cached set compares it with that key once,
    before its first write, and drops the cache when it is below.  A
    key below every pivot, a key placed after a restoring operation
    ran, and a decrease_key on a cached node drop it without comparing.

A split or concatenation that consumes the cached set empties it, and
``_restore`` drops a cache whose set is empty.  Any future operation
that removes a node or raises a key (``delete``, ``increase_key``) must
drop the cache when the node is cached.

Six restoring operations repair violations, each with a constant or
Fibonacci nominal cost that the potential tracker checks against the
three-part potential (nonempty / size / up):

  overflow_down   full set, empty slot below: slide down, O(1)
  overflow_thru   full set, occupied slot below: concatenate, push the
                  largest F_{i+3} through to the next empty slot
  underflow_up    underfull set, empty slot above: slide up, O(1)
  underflow_thru  underfull set, occupied slot above: concatenate, pull
                  the smallest F_i back out to the empty slot above
  merge_down      three-in-a-row: bottom two concatenate into the empty
                  slot below the run, O(1)
  split_up        nine-empties-in-a-row: the set below the gap splits
                  golden-ratio-proportionally into the two slots above

The Fibonacci numbers are the plain list ``FIB``.  The two nominal
costs whose index can fall below 0, F_{i-4} for overflow_thru at slot
3 and F_{i-6} for underflow_thru at slot 5, read F_0 = 0 there.

Each restoring method returns its ledger row's name and nominal cost,
and ``_restore`` records that one row for all of them.

An underfull slot 4 with slot 3 occupied has no empty slot above to
refill, so its set is folded into slot 3 instead (slot 3 is exempt
from the lower bound); any resulting oversize of slot 3 is repaired by
the regular overflow path in the same pass.

Restoration after a public operation first tests only the slot the
operation resized, in O(1); it falls back to the full lowest-index
scan of every nonempty slot when that slot is out of its band or when
the operation emptied or created a slot (see ``_restore``).
'''

from bisect import bisect_left, bisect_right
from operator import attrgetter

from .core import (EmptyHeapError, LinkedSet, PartitionHeap, lower_search,
                   pivot_search)
from .selection import split_by_rank


# F_0, F_1, ...: F_95 > 3.1e19 > 6 * 2^60, beyond any feasible n
FIB = [0, 1]
while len(FIB) < 96:
    FIB.append(FIB[-1] + FIB[-2])

_FIRST_SLOT = 3
FRONT = 8   # nodes the first-slot cache keeps


def _probe_counts(hi):
    '''Comparisons ``bisect_right`` makes over a list of ``hi`` keys,
    indexed by the position it returns: each probe's outcome follows
    from that position, so the count does too.'''
    counts = []
    for pos in range(hi + 1):
        lo = count = 0
        top = hi
        while lo < top:
            mid = (lo + top) >> 1
            count += 1
            if pos <= mid:
                top = mid
            else:
                lo = mid + 1
        counts.append(count)
    return counts


_PROBES = [_probe_counts(hi) for hi in range(FRONT)]
_KEY = attrgetter('key')


def _smallest(linked_set, meter):
    '''The FRONT smallest nodes of ``linked_set``, which holds more,
    largest first.  Each of the first FRONT nodes is placed by binary
    insertion; every later one is compared with the largest kept node
    and, when below it, takes its place by binary insertion among the
    others.  Reads only, and charges every comparison it makes: one per
    later node, and per insertion what ``_PROBES`` gives for the
    position ``bisect_right`` returned.'''
    nodes = []
    probes = 0
    at = linked_set.first
    for hi in range(FRONT):
        pos = bisect_right(nodes, at.key, key=_KEY)
        probes += _PROBES[hi][pos]
        nodes.insert(pos, at)
        at = at.next
    last = FRONT - 1
    counts = _PROBES[last]
    top = nodes[last].key
    while at is not None:
        if at.key < top:
            pos = bisect_right(nodes, at.key, 0, last, key=_KEY)
            probes += counts[pos]
            del nodes[last]
            nodes.insert(pos, at)
            top = nodes[last].key
        at = at.next
    meter.comparisons += probes + linked_set.size - FRONT
    nodes.reverse()
    return nodes


def proportional_split_sizes(i, size):
    '''Sizes (a, b) for splitting a slot-i set of the given size into
    slots i-2 and i-1: with size = F_{i+j} + r for the lowest fitting
    band j, b = F_{i+j-1} + min(r, F_{i+j-2}) and a is the rest, which
    lands both parts inside their target bands.'''
    fib = FIB
    if size <= fib[i + 1]:
        j = 0
    elif size <= fib[i + 2]:
        j = 1
    else:
        j = 2
    assert fib[i + j] <= size <= fib[i + j + 1]
    rem = size - fib[i + j]
    b = fib[i + j - 1] + min(rem, fib[i + j - 2])
    a = size - b
    assert fib[i + j - 2] <= a <= fib[i + j - 1]
    assert fib[i + j - 1] <= b <= fib[i + j]
    return a, b


class FHTNGHeap(PartitionHeap):
    '''Addressable min-heap over Fibonacci-banded slots.

    API: insert(key) -> handle, delete_min(), decrease_key(handle, key),
    with the usual error reporting for empty heaps, dead handles and
    key increases.  The -thru and split operations find their rank
    with deterministic selection.
    '''

    kind = 'fhtng'

    def __init__(self):
        super().__init__()
        self.slot_sets = [None] * (_FIRST_SLOT + 1)
        self._ne = []        # sorted indices of nonempty slots
        self._ne_pivs = []   # their pivots, same order
        self._front = []     # smallest nodes of _front_set, largest first
        self._front_set = None

    # ------------------------------------------------------------------
    # slot bookkeeping

    def _grow(self, i):
        while len(self.slot_sets) <= i:
            self.slot_sets.append(None)

    def _set_slot(self, i, linked_set, pivot):
        self._grow(i)
        assert self.slot_sets[i] is None
        self.slot_sets[i] = linked_set
        pos = bisect_left(self._ne, i)
        self._ne.insert(pos, i)
        self._ne_pivs.insert(pos, pivot)

    def _clear_slot(self, i):
        '''Empty slot i; return the pivot it held.'''
        self.slot_sets[i] = None
        pos = bisect_left(self._ne, i)
        assert self._ne[pos] == i
        del self._ne[pos]
        return self._ne_pivs.pop(pos)

    def _set_pivot(self, i, pivot):
        pos = bisect_left(self._ne, i)
        assert self._ne[pos] == i
        self._ne_pivs[pos] = pivot

    def _target(self, pos):
        '''The set an arriving key at the 1-based ``pos`` of a pivot
        search joins, or None when it would create slot 3.'''
        return self.slot_sets[self._ne[pos - 2] if pos > 1 else _FIRST_SLOT]

    def _drop_front(self):
        self._front = []
        self._front_set = None

    def _admit(self, key, pos):
        '''Before ``key`` is placed at ``pos`` while the front cache is
        held: drop the cache if the key joins its set below its largest
        key.  A key below every pivot joins slot 3 below all of its
        keys, so that costs no comparison; any other arrival costs one.'''
        if self._target(pos) is not self._front_set:
            return
        if pos > 1:
            self.meter.comparisons += 1
            if not key < self._front[0].key:
                return
        self._drop_front()

    def _place_slot(self, key, pos):
        '''Destination slot for an arriving key at the 1-based ``pos``
        that a pivot search of ``_ne_pivs`` gave: the rightmost slot
        whose pivot is <= key, or slot 3 when the key is below every
        pivot (creating or re-bounding slot 3 as needed).'''
        if pos > 1:
            return self._ne[pos - 2]
        if self.slot_sets[_FIRST_SLOT] is None:
            self._set_slot(_FIRST_SLOT, LinkedSet(), key)
        else:
            # the search put the key below slot 3's pivot, which is only
            # a lower bound; keep it tight so the sandwich audit is exact
            self._ne_pivs[0] = key
        return _FIRST_SLOT

    # ------------------------------------------------------------------
    # public operations

    def insert(self, user_key):
        '''Add an element; return its handle.'''
        meter = self.meter
        led = self.ledger
        node = self._node(user_key)
        c0 = meter.comparisons
        key = node.key
        pos = pivot_search(self._ne_pivs, key, meter)
        self.last_search_comparisons = meter.comparisons - c0
        if self._front:
            self._admit(key, pos)
        slot = self._place_slot(key, pos)
        s = self.slot_sets[slot]
        s.append(node, meter)
        self.n += 1
        if led is not None:
            led.record('insert', after=self.potential())
        # size 1: _place_slot has just created slot 3
        self._restore(slot if s.size > 1 else None)
        return node

    def delete_min(self):
        '''Remove and return the smallest user key.'''
        if self.n == 0:
            raise EmptyHeapError('delete_min on empty heap')
        meter = self.meter
        led = self.ledger
        nonempty_before = len(self._ne)
        j = self._ne[0]
        s = self.slot_sets[j]
        front = self._front
        if s is self._front_set:
            node = front.pop()
            if not front:
                self._front_set = None
        elif s.size > 2 * FRONT:
            front = _smallest(s, meter)
            node = front.pop()
            self._front = front
            self._front_set = s
        else:
            node = s.min_node(meter)
        s.remove(node, meter)
        node.alive = False
        self.n -= 1
        if s.size == 0:
            self._clear_slot(j)
        if led is not None:
            led.record('delete_min', a=nonempty_before, after=self.potential())
        self._restore(j if s.size else None)
        return node.key[0]

    def decrease_key(self, node, user_key):
        '''Lower the key of a live handle.  Sets are unordered, so a key
        still at or above its slot's pivot keeps its place in the list.
        A lower one is placed by a search of the pivots before its old
        slot, then leaves its slot and the restoration runs; when a
        restoring operation ran, every pivot is searched again, since it
        may have changed the pivots below the old slot.  Every comparison
        but those of a restoration and its search runs before the first
        write.'''
        key = self._lowered(node, user_key)
        meter = self.meter
        led = self.ledger
        pivs = self._ne_pivs
        c0 = meter.comparisons
        pos = pivot_search(pivs, node.key, meter)
        c1 = meter.comparisons
        assert pos > 1  # a live key is never below the first pivot
        if node in self._front:
            # its new key may break the cache's order
            self._drop_front()
        meter.comparisons += 1
        if not key < pivs[pos - 2]:
            if self._front:
                self._admit(key, pos)
            node.key = key
            self.last_search_comparisons = max(c1 - c0, 1)
            if led is not None:
                led.record('decrease_key', after=led.phi)
            return
        # the key is placed before the first write; without a restoring
        # operation the pivots from the old slot's index on stay above
        # it, and the ones below stay put
        c2 = meter.comparisons
        dpos = lower_search(pivs, key, meter, pos - 2)
        c3 = meter.comparisons
        if self._front:
            self._admit(key, dpos)
        src = self._ne[pos - 2]
        s = self.slot_sets[src]
        s.remove(node, meter)
        if s.size == 0:
            self._clear_slot(src)
        node.key = key
        if led is not None:
            phi0 = led.phi
            phi1 = led.phi = self.potential()
        if self._restore(src if s.size else None):
            c2 = meter.comparisons
            dpos = lower_search(pivs, key, meter, len(pivs))
            c3 = meter.comparisons
            if self._front and self._target(dpos) is self._front_set:
                self._drop_front()
        dst = self._place_slot(key, dpos)
        self.last_search_comparisons = max(c1 - c0, 1 + c3 - c2)
        s = self.slot_sets[dst]
        s.append(node, meter)
        if led is not None:
            # the two direct mutations, summed componentwise so the
            # restoring sub-operations in between cancel out; phi2 is
            # what the restoration left
            phi2 = led.phi
            phi3 = self.potential()
            before = tuple(a + c for a, c in zip(phi0, phi2))
            after = tuple(b + d for b, d in zip(phi1, phi3))
            led.record('decrease_key', before=before, after=after)
            led.phi = phi3
        self._restore(dst if s.size > 1 else None)

    def potential(self):
        '''(nonempty, size, up) potential sums; pure observation.'''
        fib = FIB
        sets = self.slot_sets
        pn = 0
        ps = 0
        pu = 0
        prefix = 0
        for i in self._ne:
            size = sets[i].size
            pn += 1
            if size >= fib[i]:
                if size < fib[i + 1]:
                    ps += fib[i + 1] - size
                elif size > fib[i + 2]:
                    ps += size - fib[i + 2]
            d = fib[i - 3] - prefix
            if d > 0:
                pu += d
            prefix += size
        return (pn, ps, pu)

    # ------------------------------------------------------------------
    # invariant restoration

    def _restore(self, touched=None):
        '''Apply restoring operations, lowest-index violation first,
        until none is left; return whether any was applied.

        ``touched`` names the one slot whose size a public operation
        changed, when the operation neither emptied nor created a slot.
        The structure is at rest before every public operation, since
        the previous restoration ended with no violation.  With the set
        of nonempty slots unchanged, the gap rule and the run rule hold
        as before, and every other slot keeps its size.  So the only
        possible violation is an over- or underflow at ``touched``: when
        both size tests pass there, the full scan would find nothing
        and is skipped.  Otherwise the full scan runs and reports the
        same lowest-index violation it always did, so the order of
        restorations, the meter and the ledger rows are unchanged.

        ``_find_violation`` names the restoring method and the slot; the
        method returns ``(op, nominal)`` and this loop records the row.
        '''
        if touched is not None:
            size = self.slot_sets[touched].size
            if size < FIB[touched + 3] and (
                    touched == _FIRST_SLOT or size > FIB[touched]):
                return False
        led = self.ledger
        guard = 0
        limit = 4 * (len(self.slot_sets) + 4)
        while True:
            violation = self._find_violation()
            if violation is None:
                if guard and self._front_set is not None \
                        and not self._front_set.size:
                    # a split or concatenation consumed the cached set
                    self._drop_front()
                return guard > 0
            restoring, i = violation
            op, nominal = restoring(i)
            if led is not None:
                led.record(op, a=i, nominal=nominal, after=self.potential())
            guard += 1
            limit = max(limit, 4 * (len(self.slot_sets) + 4))
            if guard > limit:
                raise AssertionError(
                    'restoration did not converge in %d steps' % guard)

    def _find_violation(self):
        '''Lowest-index violation, as (restoring method, slot): size
        bounds first at each slot, then a nine-empty gap (reported at
        the nonempty slot below it), then a three-nonempty run
        (reported at the run's last slot).'''
        fib = FIB
        sets = self.slot_sets
        ne = self._ne
        prev = _FIRST_SLOT - 1
        run = 0
        for pos, i in enumerate(ne):
            gap = i - prev - 1
            size = sets[i].size
            if size >= fib[i + 3]:
                return self._overflow, i
            if i > _FIRST_SLOT and size <= fib[i]:
                return self._underflow, i
            if gap >= 9:
                return self._split_up, i
            run = run + 1 if gap == 0 else 1
            if run >= 3:
                end = i
                k = pos + 1
                while k < len(ne) and ne[k] == end + 1:
                    end = ne[k]
                    k += 1
                return self._merge_down, end
            prev = i
        return None

    def _overflow(self, i):
        '''Full set at slot i: slide into an empty slot below, or pass
        the largest F_{i+3} elements through the occupied one.'''
        meter = self.meter
        fib = FIB
        self._grow(i + 2)
        s = self.slot_sets[i]
        if self.slot_sets[i + 1] is None:
            self._set_slot(i + 1, s, self._clear_slot(i))
            meter.list_links += 1
            return 'overflow_down', 1
        assert self.slot_sets[i + 2] is None
        assert s.size >= fib[i + 3]
        target = self.slot_sets[i + 1]
        keep = target.size
        self._clear_slot(i)
        target.concat(s, meter)
        low, high, boundary = split_by_rank(target, keep, meter)
        self.slot_sets[i + 1] = low
        self._set_pivot(i + 1, low.min_node(meter).key)
        self._set_slot(i + 2, high, boundary)
        return 'overflow_thru', fib[max(i - 4, 0)]

    def _underflow(self, i):
        '''Underfull set at slot i > 3: slide into an empty slot above,
        pull the smallest F_i back out through an occupied one, or fold
        into slot 3 when no slot above exists.'''
        meter = self.meter
        fib = FIB
        s = self.slot_sets[i]
        assert i > _FIRST_SLOT and s.size <= fib[i]
        if self.slot_sets[i - 1] is None:
            self._set_slot(i - 1, s, self._clear_slot(i))
            meter.list_links += 1
            return 'underflow_up', 1
        if i - 2 >= _FIRST_SLOT:
            assert self.slot_sets[i - 2] is None
            upper = self.slot_sets[i - 1]
            keep = upper.size
            take = s.size
            upper.concat(s, meter)
            self._clear_slot(i)
            low, high, boundary = split_by_rank(upper, take, meter)
            assert high.size == keep
            self.slot_sets[i - 1] = high
            self._set_pivot(i - 1, boundary)
            self._set_slot(i - 2, low, low.min_node(meter).key)
            return 'underflow_thru', fib[max(i - 6, 0)]
        # i == 4 and slot 3 occupied: nowhere above to refill
        s3 = self.slot_sets[_FIRST_SLOT]
        s3.concat(s, meter)
        self._clear_slot(i)
        return 'bottom_merge', 1

    def _merge_down(self, i):
        '''Three nonempty slots end at i: concatenate slots i-1 and i
        into the empty slot i+1, keeping the lower slot's pivot.'''
        meter = self.meter
        self._grow(i + 1)
        assert self.slot_sets[i + 1] is None
        merged = self.slot_sets[i - 1]
        merged.concat(self.slot_sets[i], meter)
        meter.list_links += 1
        self._clear_slot(i)
        self._set_slot(i + 1, merged, self._clear_slot(i - 1))
        return 'merge_down', 1

    def _split_up(self, i):
        '''Nine empty slots sit above nonempty slot i: split its set
        proportionally into slots i-2 and i-1.'''
        meter = self.meter
        assert i >= 12  # nine empties above slot i force this
        s = self.slot_sets[i]
        a, b = proportional_split_sizes(i, s.size)
        self._clear_slot(i)
        low, high, boundary = split_by_rank(s, a, meter)
        self._set_slot(i - 2, low, low.min_node(meter).key)
        self._set_slot(i - 1, high, boundary)
        return 'split_up', FIB[i - 6]

    def __repr__(self):
        shape = ', '.join('%d:%d' % (i, self.slot_sets[i].size)
                          for i in self._ne)
        return 'FHTNGHeap(n=%d, slots={%s})' % (self.n, shape)
