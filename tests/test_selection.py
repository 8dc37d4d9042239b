'''Rank selection against the sort oracle.'''

import random
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from conftest import Boom, raising_keys
from partheap import (CostMeter, LinkedSet, Node, mom_select, quickselect,
                      select_rank, split_by_rank)
from partheap.selection import _SAMPLE, select


def fill(keys):
    s = LinkedSet()
    for k in keys:
        s.append(Node(k))
    return s


def assert_links(s, nodes):
    '''``s`` holds ``nodes`` in this order, linked both ways.'''
    assert s.size == len(nodes) and list(s.iter_nodes()) == nodes
    backward = []
    at = s.last
    while at is not None:
        backward.append(at)
        at = at.prev
    assert backward == nodes[::-1]


def counting_keys(values):
    '''Keys with the given int values, and a one-item list that counts
    the ordering comparisons made between them.  Only ``<`` is defined,
    which is all that selection and ``list.sort`` use.'''
    count = [0]

    class Key:
        __slots__ = ('v',)

        def __init__(self, v):
            self.v = v

        def __lt__(self, other):
            count[0] += 1
            return self.v < other.v

    return [Key(v) for v in values], count


def layouts(n):
    '''Permutations of range(n) that stress a sampled pivot choice.'''
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    # select's bracket samples every step-th position; holding the
    # smallest keys there makes the bracket miss the ranks above them
    step = isqrt(n) // _SAMPLE
    sampled_first = sorted(range(n), key=lambda i: (i % step != 0, i))
    interleave = [0] * n
    for key, at in enumerate(sampled_first):
        interleave[at] = key
    return {
        'ascending': list(range(n)),
        'descending': list(range(n - 1, -1, -1)),
        'random': shuffled,
        'organ-pipe': list(range(0, n, 2)) + list(range(n - 1 - n % 2, 0, -2)),
        'interleave': interleave,
    }


LAYOUT_SIZES = [1 << e for e in range(10, 17)]


class TestSelectRank:

    def test_minimum(self):
        assert select_rank(fill([3, 1, 2]), 1) == 1

    def test_middle_rank(self):
        # sort oracle: sorted([5,3,9,7,1])[3] == 7
        assert select_rank(fill([5, 3, 9, 7, 1]), 4) == 7

    def test_singleton(self):
        assert select_rank(fill([42]), 1) == 42

    def test_rank_out_of_range(self):
        s = fill([1, 2, 3])
        with pytest.raises(ValueError):
            select_rank(s, 0)
        with pytest.raises(ValueError):
            select_rank(s, 4)

    def test_set_not_modified(self):
        s = fill([5, 3, 9])
        select_rank(s, 2)
        assert sorted(n.key for n in s.iter_nodes()) == [3, 5, 9]

    @given(st.lists(st.integers(), min_size=1, max_size=400),
           st.data())
    def test_matches_sort_oracle(self, keys, data):
        r = data.draw(st.integers(1, len(keys)))
        assert select_rank(fill(keys), r) == sorted(keys)[r - 1]

    def test_large_random_instances(self):
        rng = random.Random(7)
        for _ in range(25):
            size = rng.randrange(1, 10_000)
            keys = [rng.randrange(1 << 30) for _ in range(size)]
            r = rng.randrange(1, size + 1)
            assert select_rank(fill(keys), r) == sorted(keys)[r - 1]

    def test_linear_touch_ratio(self):
        # element touches per element may not grow with the input
        rng = random.Random(1)
        ratios = {}
        for k in (10, 14, 18):
            size = 1 << k
            keys = [rng.randrange(1 << 40) for _ in range(size)]
            meter = CostMeter()
            select_rank(fill(keys), size // 2, meter)
            ratios[k] = meter.selection_elements / size
        for k, ratio in ratios.items():
            assert ratio <= 2 * ratios[10], (k, ratios)

    def test_adversarial_layouts(self):
        # every layout and rank matches the sort oracle; element touches
        # per element at 2^16 stay within 2x those at 2^10; and real
        # comparisons stay within a band of the meter's (measured
        # 0.60-0.98: sorted input makes list.sort cheaper than charged)
        base = {}
        for n in LAYOUT_SIZES:
            for name, values in layouts(n).items():
                for which, r in enumerate((1, (n + 1) // 2, n - 1)):
                    keys, count = counting_keys(values)
                    meter = CostMeter()
                    assert select_rank(fill(keys), r, meter).v == r - 1
                    ratio = meter.selection_elements / n
                    base.setdefault((name, which), ratio)
                    assert ratio <= 2 * base[name, which], (name, n, r, ratio)
                    assert 0.55 <= count[0] / meter.comparisons <= 1, \
                        (name, n, r, count[0], meter.comparisons)

    def test_interleave_forces_the_fallback(self):
        # brackets that succeed halve the subarray, so touch under 2n in
        # all; a miss adds a median-of-medians pass over the same n
        for n in (1 << 10, 1 << 16):
            meter = CostMeter()
            assert select(layouts(n)['interleave'], n // 2, meter) == n // 2
            assert meter.selection_elements > 2 * n

    def test_median_comparisons(self):
        # about 2 real comparisons per element at the median of random
        # keys; median-of-medians alone makes about 7.5
        rng = random.Random(12)
        for e, runs in ((12, 16), (16, 2)):
            n = 1 << e
            total = 0
            for _ in range(runs):
                values = rng.sample(range(1 << 40), n)
                keys, count = counting_keys(values)
                assert select(keys, n // 2).v == sorted(values)[n // 2]
                total += count[0]
            assert total <= 3 * n * runs, (n, total / (n * runs))


class TestSelectRankRandomized:

    def test_rank_determined_output(self):
        for seed in range(10):
            rng = random.Random(seed)
            s = fill([5, 3, 9, 7, 1])
            assert select_rank(s, 4, rng=rng) == 7

    def test_small_cases(self):
        rng = random.Random(0)
        assert select_rank(fill([3, 1, 2]), 2, rng=rng) == 2

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            select_rank(fill([1]), 2, rng=random.Random(0))

    @given(st.lists(st.integers(), min_size=1, max_size=200),
           st.integers(0, 999), st.data())
    def test_matches_sort_oracle(self, keys, seed, data):
        r = data.draw(st.integers(1, len(keys)))
        rng = random.Random(seed)
        assert select_rank(fill(keys), r, rng=rng) == sorted(keys)[r - 1]

    @given(st.lists(st.integers(), min_size=1, max_size=200),
           st.integers(0, 999), st.data())
    def test_named_rules_match_sort_oracle(self, keys, seed, data):
        # no heap calls these entry points, so check them directly
        k = data.draw(st.integers(0, len(keys) - 1))
        want = sorted(keys)[k]
        assert select(list(keys), k, None, random.Random(seed)) == want
        assert quickselect(list(keys), k, random.Random(seed)) == want
        assert mom_select(list(keys), k) == want


class TestSplitByRank:

    def test_even_split(self):
        low, high, pivot = split_by_rank(fill([3, 5, 7, 9]), 2)
        assert sorted(n.key for n in low.iter_nodes()) == [3, 5]
        assert sorted(n.key for n in high.iter_nodes()) == [7, 9]
        assert pivot == 7

    def test_pair(self):
        low, high, pivot = split_by_rank(fill([1, 2]), 1)
        assert [n.key for n in low.iter_nodes()] == [1]
        assert [n.key for n in high.iter_nodes()] == [2]
        assert pivot == 2

    def test_larger_median_rank_on_five(self):
        # rank 3 on five elements leaves three below the pivot
        low, high, pivot = split_by_rank(fill([1, 3, 5, 7, 9]), 3)
        assert sorted(n.key for n in low.iter_nodes()) == [1, 3, 5]
        assert sorted(n.key for n in high.iter_nodes()) == [7, 9]
        assert pivot == 7

    def test_consumes_input_and_preserves_nodes(self):
        s = fill([4, 8, 6, 2])
        nodes = set(s.iter_nodes())
        low, high, _ = split_by_rank(s, 2)
        assert s.size == 0
        assert set(low.iter_nodes()) | set(high.iter_nodes()) == nodes

    def test_bad_ranks(self):
        with pytest.raises(ValueError):
            split_by_rank(fill([1]), 1)
        with pytest.raises(ValueError):
            split_by_rank(fill([1, 2]), 2)

    @given(st.lists(st.integers(), min_size=2, max_size=300, unique=True),
           st.data())
    def test_matches_sort_oracle(self, keys, data):
        r = data.draw(st.integers(1, len(keys) - 1))
        ordered = sorted(keys)
        low, high, pivot = split_by_rank(fill(keys), r)
        assert sorted(n.key for n in low.iter_nodes()) == ordered[:r]
        assert sorted(n.key for n in high.iter_nodes()) == ordered[r:]
        assert pivot == ordered[r]

    def test_adversarial_layouts(self):
        for n in LAYOUT_SIZES:
            for name, keys in layouts(n).items():
                for r in (1, (n + 1) // 2, n - 1):
                    low, high, pivot = split_by_rank(fill(keys), r)
                    assert pivot == r, (name, n, r)
                    assert [x.key for x in low.iter_nodes()] == \
                        [k for k in keys if k < r]
                    assert [x.key for x in high.iter_nodes()] == \
                        [k for k in keys if k >= r]

    def test_duplicate_keys_refused(self):
        # the key at rank 3 also sits at rank 2, so no split at 2 exists
        s = fill([2, 1, 3, 2])
        nodes = list(s.iter_nodes())
        with pytest.raises(ValueError):
            split_by_rank(s, 2)
        assert_links(s, nodes)

    def test_raising_comparison_restores_input(self):
        # a key comparison that raises, in the selection or in the
        # partition pass, leaves the input set as it was
        for size in range(2, 65):
            values = list(range(size))
            random.Random(size).shuffle(values)
            keys, fuse = raising_keys(values)
            for r in sorted({1, (size + 1) // 2, size - 1}):
                s = fill(keys)
                nodes = list(s.iter_nodes())
                k = 0
                while True:
                    fuse[0] = k
                    try:
                        split_by_rank(s, r)
                    except Boom:
                        assert_links(s, nodes)
                        k += 1
                    else:
                        break
                assert k > size  # so it covered the partition pass

    def test_randomized_strategy_same_contract(self):
        rng = random.Random(3)
        low, high, pivot = split_by_rank(fill([5, 3, 9, 7, 1]), 3, rng=rng)
        assert sorted(n.key for n in low.iter_nodes()) == [1, 3, 5]
        assert pivot == 7

    @pytest.mark.parametrize('rule', ['det', 'rand'])
    def test_split_contract(self, rule):
        # order kept on each side, input emptied, every node kept, and
        # the meter of select_rank plus one partition pass
        for size in range(2, 301):
            keys = list(range(size))
            random.Random(size).shuffle(keys)
            for r in sorted({1, (size + 1) // 2, size - 1}):
                rng = random.Random(r) if rule == 'rand' else None
                rng_ref = random.Random(r) if rule == 'rand' else None
                state = rng.getstate() if rng else None
                s = fill(keys)
                nodes = set(s.iter_nodes())
                meter = CostMeter()
                low, high, pivot = split_by_rank(s, r, meter, rng)
                assert pivot == r
                assert [n.key for n in low.iter_nodes()] == \
                    [k for k in keys if k < r]
                assert [n.key for n in high.iter_nodes()] == \
                    [k for k in keys if k >= r]
                assert (low.size, high.size) == (r, size - r)
                assert s.size == 0 and list(s.iter_nodes()) == []
                assert set(low.iter_nodes()) | set(high.iter_nodes()) == nodes

                expect = CostMeter()
                select_rank(fill(keys), r + 1, expect, rng_ref)
                assert meter.snapshot() == tuple(
                    c + size for c in expect.snapshot())
                if rng:
                    assert rng.getstate() == rng_ref.getstate()
                if size <= 25:
                    cmp = size * (size - 1).bit_length() + size
                    assert meter.snapshot() == (cmp, size, size, 2 * size)
                    if rng:
                        assert rng.getstate() == state
