'''Golden behaviour fingerprint of fixed trace replays.

For every heap and main trace pattern (seed 0, 4,000 ops) the file
``fingerprint.json`` pins the sha256 of the collected outputs, the final
meter snapshot, the sha256 of the per-op costs CSV written with potential
tracking on, and the repr of the potential budget verdict.  A refactor
must pass this test with the file unchanged.  A change that means to
alter outputs or the cost model rewrites the file with

    PYTHONPATH=src python tests/test_fingerprint.py

and says why.
'''

import hashlib
import json
import os
import sys
import tempfile

import pytest

from partheap import gen, run_trace

IMPLS = ('lp', 'fhtng', 'exp', 'oracle')
PATTERNS = ('random', 'dijkstra-like', 'sawtooth', 'adversarial-dk')
OPS = 4000
SEED = 0
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    'fingerprint.json')


def fingerprint(impl, pattern, costs_path):
    trace = gen(pattern, OPS, SEED)
    res = run_trace(trace, impl=impl, collect_outputs=True)
    outputs = hashlib.sha256(repr(res.outputs).encode()).hexdigest()
    meter = list(res.heap.meter.snapshot())
    res = run_trace(trace, impl=impl, phi=True, costs_path=costs_path)
    with open(costs_path, 'rb') as fh:
        costs = hashlib.sha256(fh.read()).hexdigest()
    return {'outputs_sha256': outputs, 'meter': meter,
            'costs_sha256': costs, 'lemma': repr(res.lemma)}


@pytest.mark.parametrize('pattern', PATTERNS)
@pytest.mark.parametrize('impl', IMPLS)
def test_fingerprint_unchanged(impl, pattern, tmp_path):
    with open(PATH) as fh:
        golden = json.load(fh)
    got = fingerprint(impl, pattern, str(tmp_path / 'costs.csv'))
    assert got == golden['%s/%s' % (impl, pattern)]


def write_golden():
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for impl in IMPLS:
            for pattern in PATTERNS:
                golden['%s/%s' % (impl, pattern)] = fingerprint(
                    impl, pattern, os.path.join(tmp, 'costs.csv'))
    with open(PATH, 'w') as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write('\n')


if __name__ == '__main__':
    sys.exit(write_golden())
