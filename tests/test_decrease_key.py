'''Decrease-key in place, on every heap.

Sets are unordered, so a decrease whose new key is still at or above
its set's lower pivot leaves the node where it is: same list position,
same set sizes, same pivots, and a metered cost of the source search
plus the one comparison with that pivot (LPHeap adds one for its cached
minimum when the key ends in its first set).  A lower key moves, and is
charged exactly the comparisons that place it.
'''

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (make_exp_state, make_fhtng_state, make_lp_state,
                      split_rule)
from partheap import (CostMeter, Trace, attach_ledger, audit, differential_run,
                      lemma_check, make_heap, pivot_search)
from partheap.exp import TOP

HEAPS = ('lp', 'fhtng', 'exp')


def state(kind):
    '''Four sets at rest; set j holds a block of consecutive keys whose
    base is its lower pivot's user key.'''
    if kind == 'lp':
        return make_lp_state([3, 3, 3, 3])
    if kind == 'exp':
        return make_exp_state([2, 3, 5, 9])
    return make_fhtng_state({4: 5, 6: 10, 8: 30, 10: 60})


def sets_of(h):
    if h.kind == 'fhtng':
        return [h.slot_sets[i] for i in h._ne]
    return list(h.sets)


def lower_pivots(h):
    '''The lower pivot of each set in order; None where there is none.'''
    if h.kind == 'fhtng':
        return list(h._ne_pivs)
    return [None] + h.pivots


def set_lower_pivot(h, j, pivot):
    if h.kind == 'fhtng':
        h._ne_pivs[j] = pivot
    else:
        h.pivots[j - 1] = pivot


def search_cost(h, key):
    '''Comparisons the source search for ``key`` makes.'''
    meter = CostMeter()
    pivot_search(h._ne_pivs if h.kind == 'fhtng' else h.pivots, key, meter)
    return meter.comparisons


def layout(h):
    return [list(s.iter_nodes()) for s in sets_of(h)]


def set_index(h, node):
    return next(j for j, nodes in enumerate(layout(h)) if node in nodes)


def delta(h, before):
    return tuple(b - a for a, b in zip(before, h.meter.snapshot()))


def check_stays(h, node, user_key):
    '''Decrease ``node`` to ``user_key`` and check that nothing moved.'''
    led = attach_ledger(h)
    j = set_index(h, node)
    nodes = layout(h)
    pivots = lower_pivots(h)
    cost = search_cost(h, node.key) + (pivots[j] is not None)
    cost += h.kind == 'lp' and j == 0  # the cached-minimum comparison
    before = h.meter.snapshot()
    h.decrease_key(node, user_key)
    assert node.key[0] == user_key
    assert layout(h) == nodes
    assert lower_pivots(h) == pivots
    assert delta(h, before) == (cost, 0, 0, 0)
    [row] = led.rows
    assert row.op == 'decrease_key' and row.before == row.after
    assert audit(h).passed


@pytest.mark.parametrize('kind', HEAPS)
def test_stay_keeps_position_sizes_and_pivots(kind):
    h = state(kind)
    for j in range(len(sets_of(h))):
        node = layout(h)[j][1]  # an inner node: its place must hold
        check_stays(h, node, node.key[0] - 1)


@pytest.mark.parametrize('kind', HEAPS)
def test_decrease_to_exactly_the_pivot_stays(kind):
    h = state(kind)
    j = len(sets_of(h)) - 1
    node = layout(h)[j][0]
    set_lower_pivot(h, j, node.key)  # tight: the pivot is node's key
    check_stays(h, node, node.key[0])


@pytest.mark.parametrize('kind', HEAPS)
def test_one_below_the_pivot_moves(kind):
    h = state(kind)
    j = len(sets_of(h)) - 1
    node = layout(h)[j][1]
    sizes = [len(nodes) for nodes in layout(h)]
    pivots = lower_pivots(h)
    key = (pivots[j][0] - 1, node.key[1])
    # the stay test, the first-pivot test, then a search of the pivots
    # strictly between the first one and the source set's
    first = 0 if kind == 'fhtng' else 1
    meter = CostMeter()
    pivot_search(pivots, key, meter, first + 1, j)
    cost = search_cost(h, node.key) + 2 + meter.comparisons
    before = h.meter.snapshot()
    h.decrease_key(node, key[0])
    assert set_index(h, node) == j - 1
    sizes[j] -= 1
    sizes[j - 1] += 1
    assert [len(nodes) for nodes in layout(h)] == sizes
    assert delta(h, before)[:3] == (cost, 1, 2)
    assert audit(h).passed


@pytest.mark.parametrize('kind', HEAPS)
def test_move_below_every_pivot_costs_two(kind):
    h = state(kind)
    node = layout(h)[-1][0]
    cost = search_cost(h, node.key) + 2 + (kind == 'lp')
    before = h.meter.snapshot()
    h.decrease_key(node, 5)
    assert set_index(h, node) == 0
    assert delta(h, before)[:3] == (cost, 1, 2)
    assert audit(h).passed


def test_fhtng_singleton_slot_stays_without_restoring():
    # slot 3 alone, then slot 12: emptying slot 3 for even a moment
    # would open nine empty slots and split slot 12
    h = make_fhtng_state({3: 2, 12: 200})
    assert h.delete_min() == 3000
    node = h.slot_sets[3].first
    assert h.slot_sets[3].size == 1
    check_stays(h, node, 3000)
    assert h._ne == [3, 12]


def test_exp_top_pivot_behaves_as_before():
    # a swap pull from the last set leaves S_2 empty under TOP; every
    # key lands in S_1, and a decrease there stays with no comparison
    # after the search
    h = make_exp_state([0, 1])
    h._pull(1)
    assert h.pivots[0] is TOP
    handles = [h.insert(k) for k in (500, 400, 300)]
    assert [s.size for s in h.sets] == [4, 0]
    for node in handles:
        check_stays(h, node, node.key[0] - 150)
    assert h.pivots[0] is TOP
    assert [h.delete_min() for _ in range(4)] == [150, 250, 350, 2000]


def lockstep_trace(steps):
    '''A valid trace from (kind, a, b) steps, b in 0..4: insert key a,
    delete_min, lower a live element by b, or lower it to b below the
    minimum.  The new keys often land on or just below a pivot, and the
    last kind empties sets from the back, as adversarial-dk does.'''
    ops = []
    live = {}  # handle -> user key
    inserts = 0
    for kind, a, b in steps:
        if kind == 0 or not live:
            live[inserts] = a
            inserts += 1
            ops.append(('i', a))
        elif kind == 1:
            del live[min(live, key=lambda h: (live[h], h))]
            ops.append(('d',))
        else:
            handle = sorted(live)[a % len(live)]
            low = live[handle] if kind == 2 else min(live.values())
            live[handle] = min(live[handle], low - b)
            ops.append(('k', handle, live[handle]))
    return Trace(ops)


@pytest.mark.parametrize('kind', HEAPS)
@pytest.mark.parametrize('select', ('det', 'rand'))
@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255),
                                st.integers(0, 4)), max_size=400))
def test_small_decrements_lockstep_with_oracle(kind, select, steps):
    heap = make_heap(kind)
    ledger = attach_ledger(heap)
    with split_rule(select):
        res = differential_run(lockstep_trace(steps), heap, audit_every=1)
    assert res.ok, (res.fail_op, res.reason)
    assert lemma_check(ledger).sharp_passed
