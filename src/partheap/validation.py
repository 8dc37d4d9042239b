'''Structural auditors.

``audit`` walks a quiescent heap and checks everything that is cheap
to state and expensive to get wrong.  One walk, ``_partition``, serves
all three heaps: stored sizes against traversal counts, each set
sandwiched between its own lower pivot and the next set's, pivot order,
key order across sets and the element count.  Each ``_audit_*`` adds
only its structure's shape invariants.  With a potential ledger attached,
it also checks that the ledger's current potential is the structure's.
Failures land in an AuditReport that names the first offending set or
slot.  The replays that run these audits live in ``runner``.
'''

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
    shape = _SHAPES.get(heap.kind)
    if shape is None:
        raise ValueError('no audit for heap kind %r' % heap.kind)
    report = AuditReport(heap.kind)
    shape(report, heap)
    led = heap.ledger
    if led is not None and report.passed:
        # the ledger's phi is every next row's before: a stale one
        # would feed wrong budgets to lemma_check
        phi = current_phi(heap)
        if led.phi != phi:
            report.fail('ledger', 'ledger phi %r but the structure has %r'
                        % (led.phi, phi))
    return report


def _partition(report, parts, n):
    '''Audit the partition every heap shares and return two lists: each
    part's node count and its minimum key (None when it is empty).
    ``parts`` is [(label, linked set, lower pivot or None)] in key
    order.  Each set is scanned; a nonempty one must lie at or
    above its own pivot and below the next part's; the pivots must be
    sorted, each set's keys must lie below the next nonempty set's, and
    the parts must hold ``n`` nodes in all.'''
    counts = []
    lows = []
    prev = None  # (label, max key) of the last nonempty set
    for k, (label, linked_set, pivot) in enumerate(parts):
        count, lo, hi = _scan(report, label, linked_set)
        counts.append(count)
        lows.append(lo)
        if not count:
            continue
        if pivot is not None and lo < pivot:
            report.fail('sandwich', 'min %s = %r below pivot %r'
                        % (label, lo, pivot))
        if k + 1 < len(parts):
            upper = parts[k + 1][2]
            if not hi < upper:
                report.fail('sandwich', 'max %s = %r not below pivot %r'
                            % (label, hi, upper))
        if prev is not None and not prev[1] < lo:
            report.fail('order', 'max %s = %r not below min %s = %r'
                        % (prev[0], prev[1], label, lo))
        prev = (label, hi)
    pivots = [pivot for _, _, pivot in parts if pivot is not None]
    for a, b in zip(pivots, pivots[1:]):
        if b < a:
            report.fail('pivots', 'pivot order %r > %r' % (a, b))
    if sum(counts) != n:
        report.fail('count', 'sets hold %d elements, heap says %d'
                    % (sum(counts), n))
    return counts, lows


def _sets_partition(report, heap):
    '''``_partition`` over LP's and Exp's layout, where ``pivots[j]``
    bounds ``sets[j + 1]`` below; None when the pivot count does not
    fit it.'''
    sets = heap.sets
    pivots = heap.pivots
    if len(pivots) != max(len(sets) - 1, 0):
        report.fail('index', '%d sets but %d pivots'
                    % (len(sets), len(pivots)))
        return None
    parts = [('S_%d' % (j + 1), s, pivots[j - 1] if j else None)
             for j, s in enumerate(sets)]
    return _partition(report, parts, heap.n)


def _audit_lp(report, heap):
    found = _sets_partition(report, heap)
    if found is None:
        return
    sizes, lows = found
    n = heap.n
    # find_min and delete_min trust cached_min: it is None exactly on
    # an empty heap, and otherwise S_1's live minimum.  Only ``is`` and
    # ``==`` here, so the check makes no counted comparison.
    cached = heap.cached_min
    low = lows[0] if lows else None
    if cached is None:
        fine = n == 0
    else:
        fine = (n > 0 and cached.alive and cached.owner is heap
                and cached.key == low)
    if not fine:
        report.fail('cached-min', 'cached %r but min S_1 = %r'
                    % (cached, low))
    ell = len(sizes)
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


def _audit_fhtng(report, heap):
    fib = FIB
    ne = heap._ne
    sets = heap.sets
    pivots = heap.pivots
    if not len(sets) == len(pivots) == len(ne) \
            or any(b <= a for a, b in zip([2] + ne, ne)):
        report.fail('index', '%d sets and %d pivots in slots %r'
                    % (len(sets), len(pivots), ne))
        return
    counts, _ = _partition(report, [('slot %d' % i, s, pivot) for i, s, pivot
                                    in zip(ne, sets, pivots)], heap.n)
    prev = None
    run = 0
    for i, count in zip(ne, counts):
        if count == 0:
            report.fail('empty-slot', 'slot %d present but empty' % i)
            continue
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
    _audit_front(report, heap)


def _audit_front(report, heap):
    '''delete_min pops FHTNG's front cache while the first slot holds
    its set: the cache must hold live nodes of a set in some slot, in
    decreasing key order, and every other node of that set must lie
    above the largest of them.  An empty cache names no set.'''
    front = heap._front
    owner = heap._front_set
    if not front:
        if owner is not None:
            report.fail('front', 'empty cache names a set')
        return
    if not any(s is owner for s in heap.sets):
        report.fail('front', 'cached set is in no slot')
        return
    members = set(owner.iter_nodes())
    for node in front:
        if not node.alive or node not in members:
            report.fail('front', 'cached %r is not a live node of its set'
                        % (node,))
    for a, b in zip(front, front[1:]):
        if not b.key < a.key:
            report.fail('front', 'cached %r before %r' % (a.key, b.key))
    top = front[0].key
    for node in members.difference(front):
        if node.key < top:
            report.fail('front', '%r in the cached set is below the '
                        'largest cached %r' % (node.key, top))


def _audit_exp(report, heap):
    found = _sets_partition(report, heap)
    if found is None:
        return
    counts = found[0]
    for i, count in enumerate(counts, start=1):
        if count >= 3 << i:
            report.fail('size-bound', 'S_%d holds %d, bound %d'
                        % (i, count, 3 << i))
    ell = len(counts)
    if heap.n >= 1 and (1 << (ell - 1)) > heap.n:
        report.fail('set-count', 'l = %d exceeds 1 + lg %d' % (ell, heap.n))


# each kind's audit: its partition walk, then its shape rules
_SHAPES = {'lp': _audit_lp, 'fhtng': _audit_fhtng, 'exp': _audit_exp}
