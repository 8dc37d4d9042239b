'''Potential ledger and exact amortization checks.

Every instrumented heap appends one row per public operation (with the
potential change of its direct mutations only) and one row per
restoring sub-operation (with that sub-operation's own nominal cost
and potential change).  ``lemma_check`` then asserts, in exact integer
arithmetic, the per-row budget each operation is supposed to satisfy.

The ledger keeps ``phi``, the potential of the heap's structure as it
is now, as the tuple ``current_phi`` returns.  The structure is at rest
between two rows, so a row's ``before`` is the previous row's ``after``
and a heap records only ``after``: each potential is computed once.
FHTNG's decrease_key row, which sums two mutations around a
restoration, is the one row that passes ``before`` too; it sets ``phi``
around the restoration itself.  LP's ``delete`` and ``increase_key``
mutate without a row and reset ``phi``.  ``validation.audit`` fails if
``phi`` is stale.

Two budget tiers are checked:

  - the primary budgets, which are the contracted per-operation bounds
    this package is tested against;
  - sharp budgets, which tighten two primary bounds that overshoot on
    small instances (see below) and otherwise coincide with them.

The two primary bounds that are not achievable in corner cases, with
the exact telescoped values the implementation does satisfy:

  - exp pull with cascade parameters (i, m): the primary budget is
    dphi <= -m - 2^(i-1) + 1, but the telescoped change is exactly
    bounded by -2^i - m + i + 2, which is the larger of the two for
    i in {1, 2}.  Pulls that only swap whole sets upward (surviving
    set of size 1) have no selection level i >= 1 at all and satisfy
    dphi <= -m + 1.
  - fhtng merge_down at slot 5: the zero budget relies on every
    neighbor holding at least F_{slot-3} elements, which the exempt
    slot 3 need not; with |S_3| = 1 the up-potential can gain one
    unit, so the provable budget is nominal + dphi <= 1 there.
'''

# LP's potential is LP_BETA * sum of max(0, |S_j| - elements_before_j);
# 4 is what makes the larger-median split pay for delete_min's scans
LP_BETA = 4

FHTNG_THRESHOLDS = {
    'overflow_down': 3,
    'overflow_thru': 5,
    'underflow_up': 6,
    'underflow_thru': 3,
    'merge_down': 0,
    'split_up': 11,
}


class PotRow:
    __slots__ = ('op', 'a', 'b', 'nominal', 'before', 'after')

    def __init__(self, op, a, b, nominal, before, after):
        self.op = op
        self.a = a
        self.b = b
        self.nominal = nominal
        self.before = before
        self.after = after

    @property
    def dphi(self):
        return sum(self.after) - sum(self.before)

    def __repr__(self):
        return ('PotRow(%s, a=%d, b=%d, nominal=%d, dphi=%d)' %
                (self.op, self.a, self.b, self.nominal, self.dphi))


class PotentialLedger:
    '''Append-only per-operation potential records for one heap run.

    ``phi`` is the heap's current potential, as ``current_phi`` gives
    it.  ``record`` uses it as the row's ``before`` unless one is
    passed, then sets it to the row's ``after``.
    '''

    def __init__(self, kind, phi=()):
        self.kind = kind
        self.rows = []
        self.phi = phi

    def record(self, op, a=0, b=0, nominal=0, *, after, before=None):
        if before is None:
            before = self.phi
        self.rows.append(PotRow(op, a, b, nominal, before, after))
        self.phi = after

    def __len__(self):
        return len(self.rows)


def current_phi(heap):
    '''Fresh potential of ``heap``, in the tuple form the ledger keeps.'''
    if heap.kind == 'lp':
        return (heap.potential_phi(),)
    return heap.potential()


def attach_ledger(heap):
    '''Create a ledger for ``heap``, starting from its current
    potential, and start recording into it.'''
    ledger = PotentialLedger(heap.kind, current_phi(heap))
    heap.ledger = ledger
    return ledger


class LemmaCheckResult:
    '''Outcome of lemma_check: primary and sharp violations plus row
    bookkeeping.  ``passed`` refers to the primary budgets.'''

    def __init__(self):
        self.checked = 0
        self.skipped = 0
        self.violations = []        # (row, primary bound)
        self.sharp_violations = []  # (row, sharp bound)

    @property
    def passed(self):
        return not self.violations

    @property
    def sharp_passed(self):
        return not self.sharp_violations

    def __repr__(self):
        return ('LemmaCheckResult(checked=%d, skipped=%d, violations=%d, '
                'sharp_violations=%d)' % (self.checked, self.skipped,
                                          len(self.violations),
                                          len(self.sharp_violations)))


def lemma_check(ledger):
    '''Assert every ledger row against its exact integer budget.'''
    kind = ledger.kind
    if kind == 'lp':
        return _check_lp(ledger)
    if kind == 'fhtng':
        return _check_fhtng(ledger)
    if kind == 'exp':
        return _check_exp(ledger)
    raise ValueError('no lemma checks for heap kind %r' % kind)


def _check_lp(ledger):
    res = LemmaCheckResult()
    for row in ledger.rows:
        d = row.dphi
        if row.op in ('insert', 'decrease_key'):
            bound = LP_BETA
        elif row.op == 'delete_min':
            # a = |S_1| before, b = number of sets before
            bound = LP_BETA * (row.b - (row.a - 1) // 2)
        else:
            res.skipped += 1
            continue
        res.checked += 1
        if d > bound:
            res.violations.append((row, bound))
            res.sharp_violations.append((row, bound))
    return res


def _check_fhtng(ledger):
    res = LemmaCheckResult()
    for row in ledger.rows:
        d = row.dphi
        op = row.op
        if op == 'insert':
            res.checked += 1
            if d > 1:
                res.violations.append((row, 1))
                res.sharp_violations.append((row, 1))
        elif op == 'decrease_key':
            res.checked += 1
            d_up = row.after[2] - row.before[2]
            if d > 2 or d_up > 0:
                res.violations.append((row, 2))
                res.sharp_violations.append((row, 2))
        elif op == 'delete_min':
            res.checked += 1
            bound = row.a + 1  # a = nonempty slots before
            if d > bound:
                res.violations.append((row, bound))
                res.sharp_violations.append((row, bound))
        elif op in FHTNG_THRESHOLDS:
            threshold = FHTNG_THRESHOLDS[op]
            amortized = row.nominal + d
            if row.a >= threshold:
                res.checked += 1
                if amortized > 0:
                    res.violations.append((row, -row.nominal))
            else:
                res.skipped += 1
            # sharp tier: merge_down at slot 5 may gain one unit of up
            # potential from an undersized slot 3
            if op == 'merge_down' and row.a == 5:
                if amortized > 1:
                    res.sharp_violations.append((row, 1 - row.nominal))
            elif row.a >= threshold and amortized > 0:
                res.sharp_violations.append((row, -row.nominal))
        else:
            res.skipped += 1  # bottom_merge and friends
    return res


def _check_exp(ledger):
    res = LemmaCheckResult()
    for row in ledger.rows:
        d = row.dphi
        op = row.op
        if op in ('insert', 'decrease_key'):
            res.checked += 1
            if d > 2:
                res.violations.append((row, 2))
                res.sharp_violations.append((row, 2))
        elif op == 'delete_min':
            res.checked += 1
            if d > row.a:  # a = number of sets
                res.violations.append((row, row.a))
                res.sharp_violations.append((row, row.a))
        elif op == 'push':
            res.checked += 1
            bound = -row.b + row.a + 3
            if d > bound:
                res.violations.append((row, bound))
                res.sharp_violations.append((row, bound))
        elif op == 'pull':
            i = row.a
            m = row.b
            if i >= 1:
                res.checked += 1
                bound = -m - (1 << (i - 1)) + 1
                if d > bound:
                    res.violations.append((row, bound))
                sharp = bound if i >= 3 else (-(1 << i) - m + i + 2)
                if d > sharp:
                    res.sharp_violations.append((row, sharp))
            else:
                # swap-only pull: no selection level to parameterize
                res.skipped += 1
                if d > -m + 1:
                    res.sharp_violations.append((row, -m + 1))
        else:
            res.skipped += 1
    return res
