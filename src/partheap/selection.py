'''Rank selection over linked sets.

One selection loop, ``select``, serves both pivot rules behind the
same rank contract:

  - deterministic, the default: each round brackets the rank between
    two pivots from a sorted sample (Floyd & Rivest, "Expected time
    bounds for selection", CACM 18(3), 1975) and falls back to one
    median-of-medians round when the bracket misses, as Musser's
    introselect does (Softw. Pract. Exper. 27(8), 1997): worst-case
    linear, about 2 comparisons per element on random keys;
  - seeded quickselect, expected linear, when an ``rng`` is given.

``mom_select`` and ``quickselect`` name the two rules.  ``select_rank``
reads a set's r-th smallest key, and ``split_by_rank`` splits a set at
a rank in one pass: it collects the nodes and their keys, selects, and
then chains each node onto the low or high side by writing its links
directly, with no per-node ``append``.

All of them report their work to a CostMeter: ``selection_elements``
grows by the size of every subarray a pass reads, ``comparisons`` by
what each pass does: one per element of a three-way partition, the
bracket pass's exact count, 7 per group of five and n * bitlen(n - 1)
per sort of n keys.  Only the sort charges are estimates; on the
layouts of tests/test_selection.py real comparisons come to 0.60-0.98
of the meter's, and that test pins the band.
'''

from math import isqrt

from .core import LinkedSet

_SMALL = 25     # sort outright at or below this size
_BRACKET = 48   # T: det subarrays at least this long try a bracket first
_SAMPLE = 3     # the bracket samples every (isqrt(n) // 3)-th element


def _bracket(arr, k, meter):
    '''One bracketing pass over ``arr`` for the 0-based rank ``k``.

    Sorts an evenly spaced sample of about 3 sqrt(n) elements, in list
    order, and takes the pivots ``lo`` and ``hi`` d = sqrt(m) sample
    ranks either side of where rank k falls in the m-element sample.  A
    pivot that falls off the sample is dropped, leaving that side open.
    One pass keeps the elements with lo <= x <= hi, comparing first
    against the pivot with more of ``arr`` outside it.

    Returns ``(kept, k')`` when the k-th smallest is the k'-th of
    ``kept`` and ``kept`` is at most half of ``arr``; otherwise None.
    '''
    n = len(arr)
    sample = arr[::isqrt(n) // _SAMPLE]
    sample.sort()
    m = len(sample)
    j = k * m // n
    d = isqrt(m)
    lo = sample[j - d] if j >= d else None
    hi = sample[j + d] if j + d < m else None
    if lo is not None and (hi is None or 2 * k >= n):
        rest = [x for x in arr if not x < lo]
        below = n - len(rest)
        kept = rest if hi is None else [x for x in rest if not hi < x]
    else:
        rest = [x for x in arr if not hi < x]
        kept = rest if lo is None else [x for x in rest if not x < lo]
        below = len(rest) - len(kept)
    if meter is not None:
        meter.comparisons += m * (m - 1).bit_length() + n
        if lo is not None and hi is not None:
            meter.comparisons += len(rest)
    if len(kept) <= n // 2 and 0 <= k - below < len(kept):
        return kept, k - below
    return None


def select(keys, k, meter=None, rng=None):
    '''Return the 0-based k-th smallest of ``keys`` (list is consumed).

    With no ``rng`` (det), a round on n >= T = 48 elements first tries
    ``_bracket``, which succeeds when its two sampled pivots hold rank k
    between them and leave at most n/2 elements.  When it misses, the
    round runs one median-of-medians partition (groups of five) on the
    same n elements, leaving at most about 7n/10 after recursing on the
    n/5 medians.  So every round either halves the subarray or is a
    median-of-medians round, and the sample sort costs O(sqrt(n) log n):
    the worst case stays linear.  Below T only median-of-medians rounds
    run; a bracket there costs more than it saves.

    With ``rng``, pivots are uniformly random elements drawn from it.
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
            if n >= _BRACKET:
                found = _bracket(arr, k, meter)
                if found is not None:
                    arr, k = found
                    continue
                if meter is not None:
                    meter.selection_elements += n
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
        # three-way partition; keep the side holding rank k.  The pivot
        # is an element of arr, so one comparison per element suffices
        lows = []
        highs = []
        if meter is not None:
            meter.comparisons += n
        for x in arr:
            if x < pivot:
                lows.append(x)
            elif x is not pivot:
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
    '''``select`` with the det rule: sampled brackets, with
    median-of-medians rounds below T and when a bracket misses.'''
    return select(keys, k, meter)


def quickselect(keys, k, rng, meter=None):
    '''``select`` with random pivots drawn from ``rng``.'''
    return select(keys, k, meter, rng)


def select_rank(linked_set, r, meter=None, rng=None):
    '''Return the r-th smallest key (1-based) of ``linked_set``.

    The set is not modified.  The meter is charged what ``select``
    charges: reading the keys is its first pass.
    '''
    if not 1 <= r <= linked_set.size:
        raise ValueError('rank %d out of range 1..%d' % (r, linked_set.size))
    return select(linked_set.keys(), r - 1, meter, rng)


def split_by_rank(linked_set, r, meter=None, rng=None):
    '''Destructively split a set at rank ``r``.

    Returns ``(low, high, pivot)`` where ``low`` holds the r smallest
    elements, ``high`` the rest and ``pivot = min(high)`` is the
    (r+1)-th smallest key.  Both keep the input's list order, and the
    input set is left empty.  Node identities are preserved, so handles
    into the original set stay valid.  Keys must be distinct (heap keys
    always are): when the keys at ranks r and r+1 are equal no split
    exists, and ValueError is raised with the input set as it was.  A
    key comparison that raises leaves the input set as it was too.

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
    pivot = select(keys, r, meter, rng)
    # the partition pass: chain each node onto the low or high side in
    # list order by writing its links directly, one comparison per node
    lo_first = lo_last = hi_first = hi_last = None
    lo_size = 0
    try:
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
        if lo_size != r:
            raise ValueError('no split at rank %d: the key there is repeated'
                             % r)
    except BaseException:
        # relink the input in its original order before re-raising
        for a, b in zip(nodes, nodes[1:]):
            a.next = b
            b.prev = a
        nodes[0].prev = nodes[-1].next = None
        raise
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
