'''Rank selection over linked sets.

One selection loop, ``select``, serves both pivot rules behind the
same rank contract:

  - deterministic median-of-medians (groups of five), the default;
  - seeded quickselect, expected linear, when an ``rng`` is given.

``mom_select`` and ``quickselect`` name the two rules.  ``select_rank``
reads a set's r-th smallest key, ``partition_nodes`` distributes a
set's nodes around a pivot, and ``split_by_rank`` does both.

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
            i = 0
            while i < n:
                group = sorted(arr[i:i + 5])
                medians.append(group[len(group) // 2])
                i += 5
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
    (r+1)-th smallest key.  Node identities are preserved, so handles
    into the original set stay valid.  Keys must be distinct (heap keys
    always are).
    '''
    size = linked_set.size
    if size < 2 or not 1 <= r < size:
        raise ValueError('rank %d out of range 1..%d' % (r, size - 1))
    pivot = select_rank(linked_set, r + 1, meter, rng)
    low, high = partition_nodes(linked_set, pivot, meter)
    assert low.size == r and high.size == size - r
    return low, high, pivot


def partition_nodes(linked_set, pivot, meter):
    '''Distribute all nodes of ``linked_set`` into two fresh sets by
    comparing against ``pivot`` (strictly-below goes low), keeping
    their list order.  Consumes the input set.'''
    nodes = list(linked_set.iter_nodes())
    size = len(nodes)
    linked_set.head.next = linked_set.tail
    linked_set.tail.prev = linked_set.head
    linked_set.size = 0
    low = LinkedSet()
    high = LinkedSet()
    for node in nodes:
        if node.key < pivot:
            low.append(node)
        else:
            high.append(node)
    if meter is not None:
        meter.comparisons += size
        meter.node_moves += size
        meter.list_links += size
        meter.selection_elements += size
    return low, high
