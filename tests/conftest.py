'''Shared fixtures: fabricators that build heaps in prescribed shapes.

The fabricators bypass the public API so tests can start from exact
set layouts (sizes, slot occupancy) with consistent keys and pivots:
each set receives a contiguous block of integer keys, and pivots sit
at each block's first key.
'''

from partheap import ExpHeap, FHTNGHeap, LinkedSet, LPHeap

BLOCK = 1000  # key block per set; sets stay far apart


def _fill(linked_set, heap, base, count):
    keys = []
    for k in range(count):
        linked_set.append(heap._node(base + k))
        keys.append(base + k)
    return keys


def make_lp_state(sizes, selection='det', seed=0):
    '''LPHeap holding len(sizes) sets of the given sizes (zeros allowed),
    with pivots at each later block's base key.'''
    heap = LPHeap(selection=selection, seed=seed)
    for j, size in enumerate(sizes):
        s = LinkedSet()
        _fill(s, heap, (j + 1) * BLOCK, size)
        heap.sets.append(s)
        if j >= 1:
            heap.pivots.append(((j + 1) * BLOCK, -1))
        heap.n += size
    if heap.n:
        first = next(s for s in heap.sets if s.size)
        heap.cached_min = first.min_node()
    return heap


def make_fhtng_state(slot_sizes, selection='det', seed=0):
    '''FHTNGHeap with the given {slot_index: size} occupancy.'''
    heap = FHTNGHeap(selection=selection, seed=seed)
    for i in sorted(slot_sizes):
        size = slot_sizes[i]
        s = LinkedSet()
        _fill(s, heap, i * BLOCK, size)
        heap._set_slot(i, s, (i * BLOCK, -1))
        heap.n += size
    return heap


def make_exp_state(sizes, selection='det', seed=0):
    '''ExpHeap with len(sizes) levels of the given sizes, laid out as
    make_lp_state lays out LPHeap.'''
    heap = ExpHeap(selection=selection, seed=seed)
    heap.sets = []
    for j, size in enumerate(sizes):
        s = LinkedSet()
        _fill(s, heap, (j + 1) * BLOCK, size)
        heap.sets.append(s)
        if j >= 1:
            heap.pivots.append(((j + 1) * BLOCK, -1))
        heap.n += size
    return heap


def drain(heap):
    '''delete_min until empty; return the user keys in pop order.'''
    out = []
    while heap.n:
        out.append(heap.delete_min())
    return out


def keys_of(linked_set):
    return sorted(node.key[0] for node in linked_set.iter_nodes())
