'''The bench CLI end to end, plus runner and report internals.'''

import csv
import json
import os
import subprocess
import sys

import pytest

import partheap
from partheap import Trace, gen, run_trace, compare_traces
from partheap.cli import main
from partheap.report import read_costs, summarize


def run_optimized(script, timeout):
    '''Run ``script`` under ``python -O``, which strips asserts, with
    this checkout's partheap importable.'''
    src = os.path.dirname(os.path.dirname(partheap.__file__))
    path = os.environ.get('PYTHONPATH')
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ''))
    return subprocess.run([sys.executable, '-O', '-c', script], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestRunner:

    def test_run_with_oracle_and_audits(self):
        trace = gen('random', 1500, seed=0)
        res = run_trace(trace, impl='lp', oracle=True, audit_every=50)
        assert res.ok, res

    def test_cost_rows_written(self, tmp_path):
        trace = gen('random', 200, seed=1)
        path = tmp_path / 'costs.csv'
        res = run_trace(trace, impl='fhtng', costs_path=str(path))
        assert res.ok
        rows = read_costs(str(path))
        assert len(rows) == 200
        kinds = {r['op_kind'] for r in rows}
        assert kinds <= {'insert', 'delete_min', 'decrease_key'}

    def test_collects_outputs(self):
        trace = Trace([('i', 3), ('i', 1), ('d',), ('d',)])
        res = run_trace(trace, impl='exp', collect_outputs=True)
        assert res.outputs == [('ok', 1), ('ok', 3)]

    def test_oracle_impl_with_audits(self):
        # the oracle heap has no structural audit; audit_every skips it
        res = run_trace(gen('random', 300, 0), impl='oracle', audit_every=50)
        assert res.ok, res

    def test_unknown_impl(self):
        with pytest.raises(ValueError):
            run_trace(Trace(), impl='zzz')

    def test_compare_all_impls_agree(self):
        trace = gen('dijkstra-like', 1200, seed=2)
        ok, results = compare_traces(trace, ('lp', 'fhtng', 'exp', 'oracle'))
        assert ok
        assert len({tuple(v) for v in results.values()}) == 1

    def test_phi_run_checks_budgets(self):
        trace = gen('random', 400, seed=4)
        res = run_trace(trace, impl='lp', phi=True)
        assert res.ok
        assert res.lemma is not None and res.lemma.passed

    def test_checked_replays_without_asserts(self):
        # python -O strips assert statements: no heap may need them
        script = '''
from partheap import gen, run_trace
from partheap.traces import PATTERNS
if __debug__:
    raise SystemExit('asserts still enabled')
for pattern in PATTERNS:
    for impl in ('lp', 'fhtng', 'exp'):
        res = run_trace(gen(pattern, 3000, 0), impl=impl, oracle=True,
                        audit_every=100, phi=True)
        if res.fail_op is not None or res.lemma.sharp_violations:
            print(pattern, impl, res.fail_op, res.reason, res.lemma)
'''
        proc = run_optimized(script, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ''

    def test_lp_lockstep_with_oracle_without_asserts(self):
        script = '''
import sys
sys.path.insert(0, %r)
from conftest import lockstep_with_oracle
if __debug__:
    raise SystemExit('asserts still enabled')
for build in (False, True):
    diff = lockstep_with_oracle(0, build)
    if diff is not None:
        print(build, diff)
''' % os.path.dirname(os.path.abspath(__file__))
        proc = run_optimized(script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ''

    def test_fhtng_bottom_merge_without_asserts(self):
        # the replays above never fold slot 4 into slot 3
        script = '''
import sys
sys.path.insert(0, %r)
from conftest import drain, make_fhtng_state
from partheap import attach_ledger, audit
if __debug__:
    raise SystemExit('asserts still enabled')
h = make_fhtng_state({3: 2, 4: 2})
led = attach_ledger(h)
h._restore()
rows = [(r.op, r.a, r.nominal, r.dphi) for r in led.rows]
shape = (list(h._ne), [s.size for s in h.sets])
report = audit(h)
out = drain(h)
if (rows != [('bottom_merge', 4, 1, -2)] or shape != ([3], [4])
        or not report.passed or out != [3000, 3001, 4000, 4001]):
    print(rows, shape, report, out)
''' % os.path.dirname(os.path.abspath(__file__))
        proc = run_optimized(script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ''

    def test_split_refuses_duplicate_keys_without_asserts(self):
        script = '''
from partheap import LinkedSet, Node, split_by_rank
if __debug__:
    raise SystemExit('asserts still enabled')
s = LinkedSet()
for k in (1, 2, 2, 3):
    s.append(Node(k))
try:
    low, high, pivot = split_by_rank(s, 2)
    print('split into %d and %d' % (low.size, high.size))
except ValueError:
    pass
print([n.key for n in s.iter_nodes()], s.size)
'''
        proc = run_optimized(script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == '[1, 2, 2, 3] 4\n'

    def test_fhtng_foreign_handle_rejected_without_asserts(self):
        # FHTNG's pivot search alone cannot tell a foreign handle apart
        script = '''
from partheap import FHTNGHeap, ForeignHandleError, audit
if __debug__:
    raise SystemExit('asserts still enabled')
a = FHTNGHeap()
b = FHTNGHeap()
handles = [a.insert(k) for k in (5, 3, 8, 1, 9)]
for k in (6, 2, 7):
    b.insert(k)
try:
    b.decrease_key(handles[2], 0)
    print('foreign handle accepted')
except ForeignHandleError:
    pass
for heap, keys in ((a, [1, 3, 5, 8, 9]), (b, [2, 6, 7])):
    report = audit(heap)
    out = [heap.delete_min() for _ in range(heap.n)]
    if not report.passed or out != keys:
        print(report, out)
'''
        proc = run_optimized(script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ''


class TestTracedBenchmark:

    def test_checked_workload_traced_run_is_correct(self):
        # the traced run wraps heap internals by name, so a refactor
        # that drops one fails here rather than in the benchmark
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        run = os.path.join(root, 'perfbench', 'run.py')
        proc = subprocess.run(
            [sys.executable, run, '--workload', 'checked', '--seed', '1',
             '--seconds', '1', '--trace', '1'],
            cwd=root, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result['correct'] is True, result['failed']


class TestCli:

    def _gen(self, tmp_path, pattern='random', ops=300, seed=0):
        out = tmp_path / 'trace.txt'
        assert main(['gen', '--pattern', pattern, '--ops', str(ops),
                     '--seed', str(seed), '-o', str(out)]) == 0
        return out

    def test_gen_run_report_pipeline(self, tmp_path, capsys):
        trace = self._gen(tmp_path)
        costs = tmp_path / 'costs.csv'
        code = main(['run', str(trace), '--impl', 'lp', '--oracle',
                     '--audit-every', '32', '--costs', str(costs)])
        assert code == 0
        out = capsys.readouterr().out
        assert 'ok:' in out
        code = main(['report', str(costs)])
        assert code == 0
        out = capsys.readouterr().out
        assert 'insert' in out

    def test_run_exit_code_on_divergence(self, tmp_path, capsys):
        # a trace file with an invalid handle id trips a ValueError in
        # the replay machinery; a clean trace with audits passes
        trace = self._gen(tmp_path, pattern='sawtooth', ops=500, seed=9)
        for impl in ('lp', 'fhtng', 'exp'):
            assert main(['run', str(trace), '--impl', impl,
                         '--oracle', '--audit-every', '100']) == 0
            capsys.readouterr()

    def test_run_oracle_impl_with_audit_flag(self, tmp_path, capsys):
        trace = self._gen(tmp_path)
        assert main(['run', str(trace), '--impl', 'oracle',
                     '--audit-every', '100']) == 0
        assert 'ok: 300 ops on oracle' in capsys.readouterr().out

    def test_compare_command(self, tmp_path, capsys):
        trace = self._gen(tmp_path, ops=400, seed=5)
        assert main(['compare', str(trace),
                     '--impls', 'lp,fhtng,exp']) == 0
        assert 'agree' in capsys.readouterr().out

    def test_compare_rejects_unknown_impl(self, tmp_path, capsys):
        trace = self._gen(tmp_path, ops=10)
        assert main(['compare', str(trace), '--impls', 'lp,bogus']) == 2

    @pytest.mark.parametrize('impls', [',', '', ' , '])
    def test_compare_rejects_empty_impls(self, tmp_path, capsys, impls):
        trace = self._gen(tmp_path, ops=10)
        assert main(['compare', str(trace), '--impls', impls]) == 2
        out = capsys.readouterr().out
        assert 'no implementation' in out and 'agree' not in out

    def test_report_scaling_and_json(self, tmp_path, capsys):
        paths = []
        for exp_n, seed in ((8, 1), (10, 2)):
            trace = gen('sorted', 1 << exp_n, seed)
            drainy = Trace(trace.ops + [('d',)] * len(trace.ops))
            costs = tmp_path / ('c%d.csv' % exp_n)
            assert run_trace(drainy, impl='lp', costs_path=str(costs)).ok
            paths.append(str(costs))
        json_out = tmp_path / 'summary.json'
        assert main(['report'] + paths + ['--json', str(json_out)]) == 0
        out = capsys.readouterr().out
        assert 'scaling' in out
        data = json.loads(json_out.read_text())
        assert len(data['scaling']) == 2
        assert data['scaling'][0]['n'] == 1 << 8

    def test_report_insert_mean_comparisons_sublogarithmic(self, tmp_path):
        # the per-kind aggregate exposes the iterated-log search cost:
        # mean insert comparisons stay under ceil(lg(2 lg n + 1)) + 3
        import math
        trace = gen('random', 16384, seed=13)
        costs = tmp_path / 'lp.csv'
        assert run_trace(trace, impl='lp', costs_path=str(costs)).ok
        summary = summarize([str(costs)])
        agg = summary['files'][0]['per_kind']['insert']
        n = summary['files'][0]['n_inserts']
        bound = math.ceil(math.log2(2 * math.log2(n) + 1)) + 3
        assert agg['mean_comparisons'] <= bound

    def test_report_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / 'bad.csv'
        bad.write_text('just,not,a,costs,file\n1,2,3,4,5\n')
        assert main(['report', str(bad)]) == 2
        assert 'error' in capsys.readouterr().out

    def test_gen_rejects_unknown_pattern(self, tmp_path):
        with pytest.raises(SystemExit):
            main(['gen', '--pattern', 'nope', '--ops', '5',
                  '-o', str(tmp_path / 'x')])

    def test_run_phi_flag(self, tmp_path, capsys):
        trace = self._gen(tmp_path, pattern='sorted', ops=64, seed=0)
        assert main(['run', str(trace), '--impl', 'lp', '--phi']) == 0
        assert 'potential budgets' in capsys.readouterr().out

    @pytest.mark.parametrize('flag', [['--select', 'rand'], ['--seed', '1']])
    @pytest.mark.parametrize('command', ['run', 'compare'])
    def test_replay_takes_no_select_or_seed(self, tmp_path, command, flag):
        # every heap has one selection rule; only gen takes a seed
        trace = self._gen(tmp_path, ops=10)
        with pytest.raises(SystemExit):
            main([command, str(trace)] + flag)
