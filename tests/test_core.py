'''Shared primitives: linked sets, pivot search, cost meter.'''

import gc
from bisect import bisect_right

from hypothesis import given, strategies as st

from partheap import CostMeter, LinkedSet, Node, pivot_search, split_by_rank
from test_selection import counting_keys


def fill(keys):
    s = LinkedSet()
    nodes = [Node(k) for k in keys]
    for node in nodes:
        s.append(node)
    return s, nodes


class TestLinkedSet:

    def test_append_remove_size(self):
        s, nodes = fill([3, 1, 2])
        assert len(s) == 3
        s.remove(nodes[1])
        assert len(s) == 2
        assert [n.key for n in s.iter_nodes()] == [3, 2]

    def test_traversal_matches_size(self):
        s, _ = fill(range(100))
        assert sum(1 for _ in s.iter_nodes()) == s.size

    def test_concat_sizes_and_emptiness(self):
        a, _ = fill([1, 2])
        b, _ = fill([5, 9])
        a.concat(b)
        assert a.size == 4
        assert b.size == 0
        assert list(b.iter_nodes()) == []
        empty1, empty2 = LinkedSet(), LinkedSet()
        empty1.concat(empty2)
        assert empty1.size == 0

    def test_concat_large_counts_constant_links(self):
        a, _ = fill(range(377))
        b, _ = fill(range(1000, 1233))
        meter = CostMeter()
        a.concat(b, meter)
        assert a.size == 610
        assert meter.list_links == 1
        assert meter.node_moves == 0
        assert meter.selection_elements == 0

    def test_concat_preserves_handles(self):
        a, nodes_a = fill([1, 2])
        b, nodes_b = fill([5, 9])
        grabbed = nodes_b[0]
        a.concat(b)
        assert grabbed.key == 5
        assert grabbed in list(a.iter_nodes())

    def test_append_remove_charge_meter(self):
        s, _ = fill([4, 2])
        meter = CostMeter()
        node = Node(7)
        s.append(node, meter)
        assert meter.snapshot() == (0, 1, 1, 0)
        s.remove(node, meter)
        assert meter.snapshot() == (0, 1, 2, 0)

    def test_no_meter_no_charge(self):
        meter = CostMeter()
        s, nodes = fill([4, 2])
        s.append(Node(7), meter)
        s.append(Node(9))
        s.remove(nodes[0])
        assert meter.snapshot() == (0, 1, 1, 0)

    def test_min_node_counts_comparisons(self):
        s, _ = fill([5, 3, 9, 7, 1])
        meter = CostMeter()
        assert s.min_node(meter).key == 1
        assert meter.comparisons == 4

    @given(st.lists(st.tuples(st.sampled_from(('append', 'remove', 'concat')),
                              st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 99)), max_size=60))
    def test_matches_list_model(self, steps):
        sets = [LinkedSet() for _ in range(3)]
        models = [[] for _ in range(3)]
        meter = CostMeter()
        moves = links = 0
        for op, i, j, pick in steps:
            if op == 'append':
                node = Node(pick)
                sets[i].append(node, meter)
                models[i].append(node)
                moves += 1
                links += 1
            elif op == 'remove' and models[i]:
                node = models[i].pop(pick % len(models[i]))
                sets[i].remove(node, meter)
                assert node.prev is None and node.next is None
                links += 1
            elif op == 'concat' and i != j:
                sets[i].concat(sets[j], meter)
                models[i] += models[j]
                models[j] = []
                links += 1
            assert meter.snapshot() == (0, moves, links, 0)
            for s, model in zip(sets, models):
                assert walk(s.first, 'next', len(model)) == model
                assert walk(s.last, 'prev', len(model)) == model[::-1]
                assert s.size == len(model)


def walk(node, link, limit):
    '''Nodes from ``node`` along ``link``, at most ``limit + 1``.'''
    out = []
    while node is not None and len(out) <= limit:
        out.append(node)
        node = getattr(node, link)
    return out


class TestNoCyclicGarbage:
    '''A set holds no reference cycle of its own, so once emptied and
    dropped it is freed without the cyclic collector.'''

    def dropped_garbage(self, build):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            keep = build()
            found = gc.collect()
        finally:
            if enabled:
                gc.enable()
        return keep, found

    def test_set_emptied_by_remove(self):
        def build():
            s, nodes = fill([4, 2])
            for node in nodes:
                s.remove(node)
            return nodes

        _, found = self.dropped_garbage(build)
        assert found == 0

    def test_split_input_set(self):
        def build():
            s, _ = fill(range(40, 0, -1))
            low, high, _ = split_by_rank(s, 17)
            return low, high

        (low, high), found = self.dropped_garbage(build)
        assert (low.size, high.size) == (17, 23)
        assert found == 0


class TestPivotSearch:

    def test_empty_index(self):
        assert pivot_search([], 5) == 1

    def test_boundary_is_inclusive(self):
        assert pivot_search([10], 10) == 2

    def test_between_pivots(self):
        # linear-scan oracle: pivots <= 9 are {3, 8}, so position 3
        assert pivot_search([3, 8, 20], 9) == 3

    @given(st.lists(st.integers(0, 100), max_size=64), st.integers(-5, 110),
           st.data())
    def test_agrees_with_linear_scan(self, raw, key, data):
        pivots = sorted(raw)
        expect = 1 + sum(1 for p in pivots if p <= key)
        assert pivot_search(pivots, key) == expect
        # a start index counts the pivots before it as <= key
        lo = data.draw(st.integers(0, len(pivots)))
        expect = 1 + lo + sum(1 for p in pivots[lo:] if p <= key)
        assert pivot_search(pivots, key, None, lo) == expect
        # an end index counts the pivots from it on as > key, as bisect
        # does; the meter counts every comparison, at most
        # ceil(lg(hi - lo + 1)) of them
        hi = data.draw(st.integers(lo, len(pivots)))
        keys, count = counting_keys(pivots + [key])
        meter = CostMeter()
        got = pivot_search(keys[:-1], keys[-1], meter, lo, hi)
        assert got == 1 + bisect_right(pivots, key, lo, hi)
        assert meter.comparisons == count[0]
        assert count[0] <= (hi - lo).bit_length()

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=64),
           st.integers(0, 1 << 20))
    def test_comparison_budget(self, raw, key):
        pivots = sorted(raw)
        meter = CostMeter()
        pivot_search(pivots, key, meter)
        ell = len(pivots) + 1  # number of intervals
        budget = 1
        while (1 << budget) < ell:
            budget += 1
        assert meter.comparisons <= budget + 1


class TestCostMeter:

    def test_snapshot(self):
        meter = CostMeter()
        meter.comparisons += 3
        meter.node_moves += 2
        assert meter.snapshot() == (3, 2, 0, 0)
