'''Structural auditors.

``audit`` walks a quiescent heap and checks everything that is cheap
to state and expensive to get wrong: stored sizes against traversal
counts, pivot sandwiches, global key ordering across sets, and each
structure's own shape invariants.  With a potential ledger attached,
it also checks that the ledger's current potential is the structure's.
Failures land in an AuditReport that names the first offending set or
slot.  The replays that run these audits live in ``runner``.
'''

from .exp import TOP
from .fhtng import FIB
from .potential import current_phi


class AuditReport:
    '''Per-check results of one audit; empty failures means pass.'''

    __slots__ = ('kind', 'failures')

    def __init__(self, kind):
        self.kind = kind
        self.failures = []

    @property
    def passed(self):
        return not self.failures

    def fail(self, check, detail):
        self.failures.append((check, detail))

    def __repr__(self):
        if self.passed:
            return 'AuditReport(%s, pass)' % self.kind
        return 'AuditReport(%s, FAIL %s: %s)' % (
            self.kind, self.failures[0][0], self.failures[0][1])


def _scan(report, label, linked_set):
    '''Traverse one set from ``first``: size agreement, back links,
    the ``last`` end, liveness, min/max keys.'''
    count = 0
    lo = hi = None
    before = None
    node = linked_set.first
    while node is not None:
        count += 1
        key = node.key
        if node.prev is not before:
            report.fail('links', '%s: back link of %r is not the node '
                        'before it' % (label, key))
        if not node.alive:
            report.fail('alive', '%s holds dead node %r' % (label, key))
        if lo is None or key < lo:
            lo = key
        if hi is None or hi < key:
            hi = key
        before = node
        node = node.next
    if linked_set.last is not before:
        report.fail('links', '%s: last is not the final node' % label)
    if count != linked_set.size:
        report.fail('size', '%s stores size %d but holds %d nodes'
                    % (label, linked_set.size, count))
    return count, lo, hi


def audit(heap):
    '''Full structural audit; side-effect free.'''
    kind = heap.kind
    if kind == 'lp':
        report = _audit_lp(heap)
    elif kind == 'fhtng':
        report = _audit_fhtng(heap)
    elif kind == 'exp':
        report = _audit_exp(heap)
    else:
        raise ValueError('no audit for heap kind %r' % kind)
    led = heap.ledger
    if led is not None and report.passed:
        # the ledger's phi is every next row's before: a stale one
        # would feed wrong budgets to lemma_check
        phi = current_phi(heap)
        if led.phi != phi:
            report.fail('ledger', 'ledger phi %r but the structure has %r'
                        % (led.phi, phi))
    return report


def _check_order(report, spans):
    '''spans: [(label, lo, hi)] of nonempty sets in structure order.'''
    for (la, _, ha), (lb, lob, _) in zip(spans, spans[1:]):
        if not ha < lob:
            report.fail('order', 'max %s = %r not below min %s = %r'
                        % (la, ha, lb, lob))


def _audit_lp(heap):
    report = AuditReport('lp')
    sets = heap.sets
    pivots = heap.pivots
    if sets and len(pivots) != len(sets) - 1:
        report.fail('index', '%d sets but %d pivots'
                    % (len(sets), len(pivots)))
        return report
    if not sets and pivots:
        report.fail('index', 'pivots without sets')
        return report
    total = 0
    spans = []
    sizes = []
    for i, s in enumerate(sets):
        count, lo, hi = _scan(report, 'S_%d' % (i + 1), s)
        total += count
        sizes.append(s.size)
        if count:
            spans.append(('S_%d' % (i + 1), lo, hi))
            if i >= 1 and lo < pivots[i - 1]:
                report.fail('sandwich', 'min S_%d = %r below pivot %r'
                            % (i + 1, lo, pivots[i - 1]))
            if i < len(pivots) and not hi < pivots[i]:
                report.fail('sandwich', 'max S_%d = %r not below pivot %r'
                            % (i + 1, hi, pivots[i]))
    for a, b in zip(pivots, pivots[1:]):
        if b < a:
            report.fail('pivots', 'pivot order %r > %r' % (a, b))
    _check_order(report, spans)
    if total != heap.n:
        report.fail('count', 'sets hold %d elements, heap says %d'
                    % (total, heap.n))
    n = heap.n
    ell = len(sets)
    if n >= 1 and (1 << (ell - 1)) > n * n:
        report.fail('set-count', 'l = %d exceeds 2 lg %d + 1' % (ell, n))
    prefix = 0
    for j, size in enumerate(sizes, start=1):
        prefix += size
        if prefix * prefix < (1 << (j - 1)):
            report.fail('prefix-growth',
                        'prefix through S_%d is %d, below 2^%.1f'
                        % (j, prefix, (j - 1) / 2))
            break
    if heap._fresh_partition:
        # right after a pivot-forgetting pass: no empty sets and no
        # adjacent pair small enough that its pivot should have gone
        for j, size in enumerate(sizes, start=1):
            if size == 0:
                report.fail('empty-set', 'S_%d empty after forget' % j)
        before = 0
        for j in range(len(sizes) - 1):
            if sizes[j] + sizes[j + 1] < before:
                report.fail('concat-rule',
                            'S_%d,S_%d hold %d together, %d smaller exist'
                            % (j + 1, j + 2, sizes[j] + sizes[j + 1], before))
            before += sizes[j]
    return report


def _audit_fhtng(heap):
    report = AuditReport('fhtng')
    fib = FIB
    ne = heap._ne
    # internal index coherence
    occupied = [i for i in range(len(heap.slot_sets))
                if heap.slot_sets[i] is not None]
    if occupied != ne or len(heap._ne_pivs) != len(ne):
        report.fail('index', 'nonempty index %r with %d pivots but slots %r'
                    % (ne, len(heap._ne_pivs), occupied))
        return report
    total = 0
    spans = []
    prev = None
    run = 0
    for i, pivot in zip(ne, heap._ne_pivs):
        s = heap.slot_sets[i]
        count, lo, hi = _scan(report, 'slot %d' % i, s)
        total += count
        if count == 0:
            report.fail('empty-slot', 'slot %d present but empty' % i)
            continue
        if lo < pivot:
            report.fail('sandwich', 'min slot %d = %r below pivot %r'
                        % (i, lo, pivot))
        spans.append(('slot %d' % i, lo, hi))
        if count >= fib[i + 3]:
            report.fail('band', 'slot %d holds %d, not below F_%d = %d'
                        % (i, count, i + 3, fib[i + 3]))
        elif i > 3 and count <= fib[i]:
            report.fail('band', 'slot %d holds %d, not above F_%d = %d'
                        % (i, count, i, fib[i]))
        gap = (i - 3) if prev is None else (i - prev - 1)
        if gap > 8:
            report.fail('consecutive-empty',
                        '%d empty slots above slot %d' % (gap, i))
        run = run + 1 if (prev is not None and gap == 0) else 1
        if run > 2:
            report.fail('consecutive-nonempty',
                        'three nonempty slots ending at %d' % i)
        prev = i
    for a, b in zip(heap._ne_pivs, heap._ne_pivs[1:]):
        if b < a:
            report.fail('pivots', 'pivot order %r > %r' % (a, b))
    _check_order(report, spans)
    if total != heap.n:
        report.fail('count', 'slots hold %d elements, heap says %d'
                    % (total, heap.n))
    return report


def _audit_exp(heap):
    report = AuditReport('exp')
    sets = heap.sets
    pivots = heap.pivots
    if len(pivots) != len(sets):
        report.fail('index', '%d sets but %d pivot entries'
                    % (len(sets), len(pivots)))
        return report
    total = 0
    spans = []
    for i, s in enumerate(sets, start=1):
        count, lo, hi = _scan(report, 'S_%d' % i, s)
        total += count
        if count >= 3 << i:
            report.fail('size-bound', 'S_%d holds %d, bound %d'
                        % (i, count, 3 << i))
        if i >= 2:
            pivot = pivots[i - 1]
            if count and lo < pivot:
                report.fail('sandwich', 'min S_%d = %r below pivot %r'
                            % (i, lo, pivot))
            if count and pivot is TOP:
                report.fail('sandwich', 'S_%d nonempty under TOP pivot' % i)
        if count and i < len(sets) and pivots[i] is not TOP and not hi < pivots[i]:
            report.fail('sandwich', 'max S_%d = %r not below pivot %r'
                        % (i, hi, pivots[i]))
        if count:
            spans.append(('S_%d' % i, lo, hi))
    for a, b in zip(pivots[1:], pivots[2:]):
        if b < a:
            report.fail('pivots', 'pivot order %r > %r' % (a, b))
    _check_order(report, spans)
    if total != heap.n:
        report.fail('count', 'sets hold %d elements, heap says %d'
                    % (total, heap.n))
    if heap.n >= 1 and (1 << (len(sets) - 1)) > heap.n:
        report.fail('set-count', 'l = %d exceeds 1 + lg %d'
                    % (len(sets), heap.n))
    return report
