'''Shared fixtures: fabricators that build heaps in prescribed shapes,
and a lockstep driver of LPHeap against OracleHeap.

The fabricators bypass the public API so tests can start from exact
set layouts (sizes, slot occupancy) with consistent keys and pivots:
each set receives a contiguous block of integer keys, and pivots sit
at each block's first key.

``split_rule`` runs the partition heaps with the library's randomized
selection rule in place of their own deterministic one, and
``raising_keys`` makes keys whose comparison raises after a set count.
'''

import contextlib
import random

import partheap.exp
import partheap.fhtng
import partheap.lp
from partheap import (ExpHeap, FHTNGHeap, HeapError, LinkedSet, LPHeap,
                      OracleHeap, audit, split_by_rank)

BLOCK = 1000  # key block per set; sets stay far apart


def _fill(linked_set, heap, base, count):
    keys = []
    for k in range(count):
        linked_set.append(heap._node(base + k))
        keys.append(base + k)
    return keys


def make_lp_state(sizes):
    '''LPHeap holding len(sizes) sets of the given sizes (zeros allowed),
    with pivots at each later block's base key.'''
    heap = LPHeap()
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


def make_fhtng_state(slot_sizes):
    '''FHTNGHeap with the given {slot_index: size} occupancy.'''
    heap = FHTNGHeap()
    for i in sorted(slot_sizes):
        size = slot_sizes[i]
        s = LinkedSet()
        _fill(s, heap, i * BLOCK, size)
        heap.sets.append(s)
        heap.pivots.append((i * BLOCK, -1))
        heap._ne.append(i)
        heap.n += size
    return heap


def make_exp_state(sizes):
    '''ExpHeap with len(sizes) levels of the given sizes, laid out as
    make_lp_state lays out LPHeap.'''
    heap = ExpHeap()
    heap.sets = []
    for j, size in enumerate(sizes):
        s = LinkedSet()
        _fill(s, heap, (j + 1) * BLOCK, size)
        heap.sets.append(s)
        if j >= 1:
            heap.pivots.append(((j + 1) * BLOCK, -1))
        heap.n += size
    return heap


@contextlib.contextmanager
def randomized_splits(rng):
    '''Within the block LPHeap, FHTNGHeap and ExpHeap find each split
    key with seeded quickselect, ``split_by_rank(..., rng)``, instead of
    deterministic selection.  Both rules find the same key, so only the
    meter's comparison and selection counts may differ.'''
    def split(linked_set, r, meter=None):
        return split_by_rank(linked_set, r, meter, rng)

    modules = (partheap.lp, partheap.fhtng, partheap.exp)
    saved = [module.split_by_rank for module in modules]
    for module in modules:
        module.split_by_rank = split
    try:
        yield
    finally:
        for module, fn in zip(modules, saved):
            module.split_by_rank = fn


def split_rule(select, seed=0):
    '''Context that runs the heaps under selection rule ``select``:
    'det' is their own rule, 'rand' is randomized_splits seeded with
    ``seed``.'''
    if select == 'det':
        return contextlib.nullcontext()
    return randomized_splits(random.Random(seed))


class Boom(Exception):
    '''A raising key's comparison after its fuse burnt out.'''


def raising_keys(values):
    '''Keys with the given distinct int values, and a one-item list
    ``fuse``.  Once ``fuse[0]`` is set to a count, ``<`` and ``<=``
    raise Boom after that many more ordering comparisons; None never
    raises.  Each comparison counts ``fuse[0]`` down, so a large fuse
    also counts comparisons.'''
    fuse = [None]

    def burn():
        if fuse[0] is not None:
            fuse[0] -= 1
            if fuse[0] < 0:
                raise Boom()

    class Key:
        __slots__ = ('v',)

        def __init__(self, v):
            self.v = v

        def __lt__(self, other):
            burn()
            return self.v < other.v

        def __le__(self, other):
            burn()
            return self.v <= other.v

    return [Key(v) for v in values], fuse


def drain(heap):
    '''delete_min until empty; return the user keys in pop order.'''
    out = []
    while heap.n:
        out.append(heap.delete_min())
    return out


def keys_of(linked_set):
    return sorted(node.key[0] for node in linked_set.iter_nodes())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HeapError as exc:
        return type(exc)


def lockstep_with_oracle(seed, build=False):
    '''Drive LPHeap and OracleHeap through 400 seeded random ops: insert,
    delete_min, decrease_key, delete and increase_key, including calls
    on dead handles and keys that break the order rule (NaN too).  LP
    starts from LPHeap.build over the initial keys, or from inserts of
    them.  After every op the two must agree on the outcome or error
    class, len and find_min, and LP must pass its audit; at the end
    both drain to the same keys.  Return a description of the first
    difference, or None.  Nothing here is an assert, so the driver
    checks the same under ``python -O``.'''
    rng = random.Random(seed)
    keys = [rng.randrange(100) for _ in range(rng.randrange(60))]
    ref = OracleHeap()
    refs = [ref.insert(k) for k in keys]
    if build:
        lp = LPHeap.build(keys)
        nodes = list(lp.sets[0].iter_nodes()) if lp.sets else []
    else:
        lp = LPHeap()
        nodes = [lp.insert(k) for k in keys]
    pairs = list(zip(nodes, refs))
    for i in range(400):
        name = rng.choice(('insert', 'insert', 'delete_min', 'decrease_key',
                           'delete', 'increase_key'))
        if name == 'insert' or (name != 'delete_min' and not pairs):
            name = 'insert'
            key = rng.randrange(100)
            pairs.append((lp.insert(key), ref.insert(key)))
            args = (key,)
            got = want = None
        elif name == 'delete_min':
            args = ()
            got, want = _outcome(lp.delete_min), _outcome(ref.delete_min)
        else:
            node, handle = rng.choice(pairs)
            step = rng.randrange(-5, 30)
            key = handle.key[0] + (step if name == 'increase_key' else -step)
            if rng.random() < 0.05:
                key = float('nan')
            args = () if name == 'delete' else (key,)
            got = _outcome(getattr(lp, name), node, *args)
            want = _outcome(getattr(ref, name), handle, *args)
        seen = (got, len(lp), _outcome(lp.find_min))
        expected = (want, len(ref), _outcome(ref.find_min))
        if seen != expected:
            return 'op %d %s%r: lp %r, oracle %r' % (i, name, args, seen,
                                                    expected)
        report = audit(lp)
        if not report.passed:
            return 'op %d %s%r: %r' % (i, name, args, report)
    out = drain(lp)
    want = drain(ref)
    if out != want:
        return 'drain: lp %r, oracle %r' % (out, want)
    return None
