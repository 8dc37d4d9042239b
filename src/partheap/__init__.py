'''partheap: partition-based priority queues with stable handles.

Three addressable min-heaps store elements in unordered linked sets
separated by pivots, differing only in how they keep the set count
logarithmic: LPHeap (prefix-size concatenation rule), FHTNGHeap
(Fibonacci size bands over slots) and ExpHeap (exponential caps with
recursive push/pull).  All three support amortized O(lg lg n) insert
and decrease_key and O(lg n) delete_min.

The validation layer (audit, lemma_check, and differential_run, which
shares run_trace's replay loop in ``runner``) turns the structural
invariants and per-operation potential budgets into exact executable
checks; the ``partheap`` CLI generates and replays workloads and
reports per-operation costs.
'''

from .core import (CostMeter, DeadHandleError, EmptyHeapError,
                   ForeignHandleError, HeapError, KeyOrderError,
                   LinkedSet, Node, pivot_search)
from .exp import ExpHeap
from .fhtng import FHTNGHeap, FIB
from .lp import LPHeap
from .oracle import OracleHeap
from .potential import (PotentialLedger, attach_ledger, lemma_check)
from .selection import mom_select, quickselect, select_rank, split_by_rank
from .traces import PATTERNS, Trace, gen
from .runner import compare_traces, differential_run, make_heap, run_trace
from .validation import AuditReport, audit

__all__ = [
    'AuditReport', 'CostMeter', 'DeadHandleError', 'EmptyHeapError',
    'ExpHeap', 'FHTNGHeap', 'FIB', 'ForeignHandleError', 'HeapError',
    'KeyOrderError', 'LPHeap', 'LinkedSet', 'Node', 'OracleHeap',
    'PATTERNS', 'PotentialLedger', 'Trace',
    'attach_ledger', 'audit', 'compare_traces', 'differential_run',
    'gen', 'lemma_check', 'make_heap', 'mom_select', 'pivot_search',
    'quickselect', 'run_trace', 'select_rank', 'split_by_rank',
]

__version__ = '0.1.0'
