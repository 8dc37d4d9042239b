'''Tests of the benchmark's own checks.

    python3 -m pytest perfbench -q
'''

import random

import pytest

import bench
from model import CountingKeys, mismatches, reference

ph = bench.load_partheap()

PATTERNS = ('random', 'dijkstra-like', 'sawtooth', 'adversarial-dk')


def sorted_model(ops):
    '''delete_min by sorting the live keys every time.'''
    live = {}
    outputs = []
    handle = 0
    for op in ops:
        if op[0] == 'i':
            live[handle] = op[1]
            handle += 1
        elif op[0] == 'd':
            smallest = sorted(live.values())[0]
            victim = next(h for h, k in live.items() if k == smallest)
            del live[victim]
            outputs.append(smallest)
        else:
            live[op[1]] = op[2]
    return outputs, sorted(live.values())


def random_trace(rng, n, key_range):
    '''Valid trace with many equal keys: live handles, no increases.'''
    ops = []
    live = {}
    handle = 0
    for _ in range(n):
        r = rng.random()
        if not live or r < 0.45:
            ops.append(('i', rng.randrange(key_range)))
            live[handle] = ops[-1][1]
            handle += 1
        elif r < 0.75:
            ops.append(('d',))
            smallest = min(live.values())
            del live[next(h for h, k in live.items() if k == smallest)]
        else:
            h = rng.choice(sorted(live))
            live[h] -= rng.randrange(3)
            ops.append(('k', h, live[h]))
    return ops


@pytest.mark.parametrize('seed', range(20))
def test_reference_matches_sorted_model(seed):
    rng = random.Random(seed)
    ops = random_trace(rng, 300, key_range=rng.choice((5, 50, 10 ** 6)))
    assert reference(ops) == sorted_model(ops)


@pytest.mark.parametrize('pattern', PATTERNS)
def test_reference_matches_sorted_model_on_generated_traces(pattern):
    ops = ph.gen(pattern, 2000, 3).ops
    assert reference(ops) == sorted_model(ops)


def test_counting_key_ties_fall_through_to_the_counter():
    keys = CountingKeys()
    a, b = keys.wrap(5), keys.wrap(5)
    assert (a, 0) < (b, 1)
    assert not (b, 1) < (a, 0)
    assert keys.count == 0        # equal keys: == decides, not counted
    assert (keys.wrap(4), 9) < (a, 0)
    assert keys.count == 1


@pytest.mark.parametrize('impl', bench.HEAPS)
@pytest.mark.parametrize('pattern', PATTERNS)
def test_counting_keys_change_neither_outputs_nor_meter(impl, pattern):
    ops = ph.gen(pattern, 3000, 5).ops
    keys = CountingKeys()
    plain = ph.make_heap(impl)
    counted = ph.make_heap(impl)
    out_plain = bench.replay(plain, ops)
    out_counted = bench.replay(counted, keys.wrap_ops(ops))
    assert [k.v for k in out_counted] == out_plain
    assert counted.meter.snapshot() == plain.meter.snapshot()
    assert keys.count > 0


@pytest.fixture(scope='module')
def small_checked():
    w = bench.Workload('checked', 7)
    w.n_ops = 3000
    w.set_up()
    return w


def test_checked_replay_passes_on_good_outputs(small_checked):
    w = small_checked
    tally = bench.Tally()
    for impl in bench.HEAPS:
        _, heap = bench.timed_replay(w, impl, tally)
        bench.check_drain(w, heap, tally)
    assert tally.failed == 0
    assert tally.attempted == 3 * (w.n_ops + w.live)


def test_corrupted_outputs_are_reported_as_failed(small_checked):
    w = small_checked
    assert mismatches([1, 2, 3], [1, 2, 3]) == 0
    assert mismatches([1, 9, 3], [1, 2, 3]) == 1
    assert mismatches([1, 2], [1, 2, 3]) == 1
    saved = list(w.expected), list(w.remaining)
    try:
        w.expected[len(w.expected) // 2] += 1
        w.remaining[0] -= 1
        tally = bench.Tally()
        _, heap = bench.timed_replay(w, 'lp', tally)
        assert tally.failed == 1
        bench.check_drain(w, heap, tally)
        assert tally.failed == 2
    finally:
        w.expected, w.remaining = saved
