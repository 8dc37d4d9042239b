'''Rank selection over linked sets.

One selection loop, ``select``, serves both pivot rules behind the
same rank contract:

  - deterministic median-of-medians (groups of five), the default;
  - seeded quickselect, expected linear, when an ``rng`` is given.

``mom_select`` and ``quickselect`` name the two rules.  ``select_rank``
reads a set's r-th smallest key, and ``split_by_rank`` splits a set at
a rank in one pass: it collects the nodes and their keys, selects, and
then chains each node onto the low or high side by writing its links
directly, with no per-node ``append``.

All of them report their work to a CostMeter: ``selection_elements``
grows by the size of every subarray processed, ``comparisons`` by a
linear charge per pass.  The counts are what the linearity tests
measure, so they must stay proportional to real work; they are not
required to be compare-exact.
'''

from .core import LinkedSet

_SMALL = 25


def select(keys, k, meter=None, rng=None):
    '''Return the 0-based k-th smallest of ``keys`` (list is consumed).

    Pivots are medians of medians of five, worst-case linear time, or,
    when ``rng`` is given, uniformly random elements drawn from it.
    '''
    arr = keys
    while True:
        n = len(arr)
        if meter is not None:
            meter.selection_elements += n
        if n <= _SMALL:
            if meter is not None and n > 1:
                meter.comparisons += n * (n - 1).bit_length()
            arr.sort()
            return arr[k]
        if rng is None:
            medians = []
            for i in range(0, n, 5):
                group = arr[i:i + 5]
                group.sort()
                medians.append(group[len(group) // 2])
            if meter is not None:
                meter.comparisons += 7 * ((n + 4) // 5)
            pivot = select(medians, len(medians) // 2, meter)
        else:
            pivot = arr[rng.randrange(n)]
        # three-way partition; keep the side holding rank k
        lows = []
        highs = []
        if meter is not None:
            meter.comparisons += n
        for x in arr:
            if x < pivot:
                lows.append(x)
            elif pivot < x:
                highs.append(x)
        not_high = n - len(highs)
        if k < len(lows):
            arr = lows
        elif k < not_high:
            return pivot
        else:
            arr = highs
            k -= not_high


def mom_select(keys, k, meter=None):
    '''``select`` with median-of-medians pivots.'''
    return select(keys, k, meter)


def quickselect(keys, k, rng, meter=None):
    '''``select`` with random pivots drawn from ``rng``.'''
    return select(keys, k, meter, rng)


def select_rank(linked_set, r, meter=None, rng=None):
    '''Return the r-th smallest key (1-based) of ``linked_set``.

    The set is not modified.  Element touches are linear in the set
    size: median-of-medians, or seeded quickselect when ``rng`` is
    given.
    '''
    if not 1 <= r <= linked_set.size:
        raise ValueError('rank %d out of range 1..%d' % (r, linked_set.size))
    keys = linked_set.keys()
    if meter is not None:
        meter.selection_elements += len(keys)
    return select(keys, r - 1, meter, rng)


def split_by_rank(linked_set, r, meter=None, rng=None):
    '''Destructively split a set at rank ``r``.

    Returns ``(low, high, pivot)`` where ``low`` holds the r smallest
    elements, ``high`` the rest and ``pivot = min(high)`` is the
    (r+1)-th smallest key.  Both keep the input's list order, and the
    input set is left empty.  Node identities are preserved, so handles
    into the original set stay valid.  Keys must be distinct (heap keys
    always are).

    One pass collects the nodes and their keys; the meter is charged
    what ``select_rank(linked_set, r + 1)`` charges plus ``size`` on
    each of its four counters for the partition pass.
    '''
    size = linked_set.size
    if size < 2 or not 1 <= r < size:
        raise ValueError('rank %d out of range 1..%d' % (r, size - 1))
    nodes = []
    keys = []
    at = linked_set.first
    while at is not None:
        nodes.append(at)
        keys.append(at.key)
        at = at.next
    if meter is not None:
        meter.selection_elements += size
    pivot = select(keys, r, meter, rng)
    # the partition pass: chain each node onto the low or high side in
    # list order by writing its links directly, one comparison per node
    lo_first = lo_last = hi_first = hi_last = None
    lo_size = 0
    for node in nodes:
        if node.key < pivot:
            if lo_last is None:
                lo_first = node
            else:
                lo_last.next = node
            node.prev = lo_last
            lo_last = node
            lo_size += 1
        else:
            if hi_last is None:
                hi_first = node
            else:
                hi_last.next = node
            node.prev = hi_last
            hi_last = node
    assert lo_size == r
    lo_last.next = hi_last.next = None
    low = LinkedSet()
    low.first, low.last, low.size = lo_first, lo_last, lo_size
    high = LinkedSet()
    high.first, high.last, high.size = hi_first, hi_last, size - lo_size
    linked_set.first = linked_set.last = None
    linked_set.size = 0
    if meter is not None:
        meter.comparisons += size
        meter.node_moves += size
        meter.list_links += size
        meter.selection_elements += size
    return low, high, pivot
