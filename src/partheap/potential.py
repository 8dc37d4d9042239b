'''Potential ledger and exact amortization checks.

Every instrumented heap records one row per public operation (the
potential change of its direct mutations only) and one per restoring
sub-operation (its nominal cost and potential change; FHTNG's come from
``_restore``).  ``lemma_check`` checks each row, in exact integer
arithmetic, against the budgets its heap kind's ``_BUDGETS`` entry gives.

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
    '''Assert every ledger row against its exact integer budget.

    ``_BUDGETS[kind](row, dphi)`` gives ``(charge, primary, sharp)``: the
    row's ``dphi`` (FHTNG's decrease_key aside) and its bound in each
    tier, None where a tier does not check the row.  A row is checked
    when its primary tier checks it, else skipped.'''
    try:
        budget = _BUDGETS[ledger.kind]
    except KeyError:
        raise ValueError('no lemma checks for heap kind %r'
                         % ledger.kind) from None
    res = LemmaCheckResult()
    violations = res.violations
    sharp_violations = res.sharp_violations
    checked = 0
    for row in ledger.rows:
        # row.dphi without the property call, as this runs per row
        d, primary, sharp = budget(row, sum(row.after) - sum(row.before))
        if primary is not None:
            checked += 1
            if d > primary:
                violations.append((row, primary))
        if sharp is not None and d > sharp:
            sharp_violations.append((row, sharp))
    res.checked = checked
    res.skipped = len(ledger.rows) - checked
    return res


def _lp_budget(row, d):
    op = row.op
    if op == 'insert' or op == 'decrease_key':
        return d, LP_BETA, LP_BETA
    if op == 'delete_min':
        # a = |S_1| before, b = number of sets before
        bound = LP_BETA * (row.b - (row.a - 1) // 2)
        return d, bound, bound
    return d, None, None


def _fhtng_budget(row, d):
    op = row.op
    if op == 'insert':
        return d, 1, 1
    if op == 'decrease_key':
        # the up component may not rise at all: a rise is charged at
        # least 3, over the bound 2 whatever dphi is
        if d <= 2 and row.after[2] > row.before[2]:
            d = 3
        return d, 2, 2
    if op == 'delete_min':
        bound = row.a + 1  # a = nonempty slots before
        return d, bound, bound
    threshold = FHTNG_THRESHOLDS.get(op)
    if threshold is None:
        return d, None, None  # bottom_merge
    # a restoring row pays its nominal cost: nominal + dphi <= 0
    bound = -row.nominal
    if op == 'merge_down' and row.a == 5:
        # sharp tier: merge_down at slot 5 may gain one unit of up
        # potential from an undersized slot 3
        return d, bound, bound + 1
    if row.a < threshold:
        return d, None, None
    return d, bound, bound


def _exp_budget(row, d):
    op = row.op
    if op == 'insert' or op == 'decrease_key':
        return d, 2, 2
    if op == 'delete_min':
        return d, row.a, row.a  # a = number of sets
    if op == 'push':
        bound = -row.b + row.a + 3
        return d, bound, bound
    if op == 'pull':
        i = row.a
        m = row.b
        if i < 1:
            # swap-only pull: no selection level to parameterize
            return d, None, -m + 1
        bound = -m - (1 << (i - 1)) + 1
        return d, bound, bound if i >= 3 else -(1 << i) - m + i + 2
    return d, None, None


_BUDGETS = {'lp': _lp_budget, 'fhtng': _fhtng_budget, 'exp': _exp_budget}
