'''Golden behaviour fingerprint of fixed trace replays.

For every heap and main trace pattern (seed 0, 4,000 ops) the file
``fingerprint.json`` pins the sha256 of the collected outputs, the final
meter snapshot, the sha256 of the per-op costs CSV written with potential
tracking on, the sha256 of every potential ledger row (op, a, b, nominal,
before, after) and the repr of the potential budget verdict.  The three
partition heaps are pinned under ``<impl>/<pattern>`` with their own
deterministic selection, and under ``<impl>/<pattern>/rand`` with the
library's seeded quickselect finding each split (conftest.split_rule).
Both rules split at the same keys, so only the meter and the costs
differ between the two.  A refactor must pass this test with the file
unchanged.  A change that means to alter outputs or the cost model
rewrites the file with

    PYTHONPATH=src python tests/test_fingerprint.py

and says why.  To see what such a change moves before rewriting,

    PYTHONPATH=src python tests/test_fingerprint.py --diff

prints, for each case that differs from the file, the fields that
differ with the old and new meter, writes nothing, and exits with
status 1 when any case differs.
'''

import hashlib
import json
import os
import sys
import tempfile

import pytest

from conftest import split_rule
from partheap import gen, run_trace

IMPLS = ('lp', 'fhtng', 'exp', 'oracle')
PATTERNS = ('random', 'dijkstra-like', 'sawtooth', 'adversarial-dk')
OPS = 4000
SEED = 0
RAND_IMPLS = ('lp', 'fhtng', 'exp')
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    'fingerprint.json')


CASES = ([(impl, pattern, 'det') for impl in IMPLS for pattern in PATTERNS]
         + [(impl, pattern, 'rand') for impl in RAND_IMPLS
            for pattern in PATTERNS])


def case_name(impl, pattern, select):
    name = '%s/%s' % (impl, pattern)
    return name if select == 'det' else '%s/%s' % (name, select)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(impl, pattern, select, costs_path):
    trace = gen(pattern, OPS, SEED)
    with split_rule(select):
        res = run_trace(trace, impl=impl, collect_outputs=True)
    outputs = sha256(repr(res.outputs))
    meter = list(res.heap.meter.snapshot())
    with split_rule(select):
        res = run_trace(trace, impl=impl, phi=True, costs_path=costs_path)
    with open(costs_path, 'rb') as fh:
        costs = hashlib.sha256(fh.read()).hexdigest()
    rows = res.ledger.rows if res.ledger is not None else []
    ledger = sha256(repr([(r.op, r.a, r.b, r.nominal, r.before, r.after)
                          for r in rows]))
    return {'outputs_sha256': outputs, 'meter': meter,
            'costs_sha256': costs, 'ledger_sha256': ledger,
            'lemma': repr(res.lemma)}


@pytest.mark.parametrize('impl,pattern,select', CASES,
                         ids=[case_name(*c).replace('/', '-') for c in CASES])
def test_fingerprint_unchanged(impl, pattern, select, tmp_path):
    with open(PATH) as fh:
        golden = json.load(fh)
    got = fingerprint(impl, pattern, select, str(tmp_path / 'costs.csv'))
    assert got == golden[case_name(impl, pattern, select)]


def write_golden():
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            golden[case_name(*case)] = fingerprint(
                *case, os.path.join(tmp, 'costs.csv'))
    with open(PATH, 'w') as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write('\n')


def print_diff():
    '''Print each case's fields that differ from the file; return the
    number of cases that differ.'''
    with open(PATH) as fh:
        golden = json.load(fh)
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            name = case_name(*case)
            old = golden.get(name)
            got = fingerprint(*case, os.path.join(tmp, 'costs.csv'))
            if old is None:
                print('%s: not in %s' % (name, os.path.basename(PATH)))
                differing += 1
                continue
            fields = sorted(k for k in set(old) | set(got)
                            if old.get(k) != got.get(k))
            if fields:
                differing += 1
                print('%s: %s; meter %s -> %s' % (
                    name, ', '.join(fields), old.get('meter'), got['meter']))
    print('%d of %d cases differ' % (differing, len(CASES)))
    return differing


if __name__ == '__main__':
    if sys.argv[1:] == ['--diff']:
        sys.exit(1 if print_diff() else 0)
    elif sys.argv[1:]:
        sys.exit('usage: test_fingerprint.py [--diff]')
    else:
        sys.exit(write_golden())
