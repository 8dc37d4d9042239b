'''Checks that stand apart from the program under test.

Nothing here imports ``partheap``.  ``reference`` computes what a
correct addressable min-heap must output for a trace, ``mismatches``
scores a heap's outputs against it, and ``CountingKeys`` wraps integer
keys so that every ordering comparison a heap makes on them is counted.
'''

import heapq


def reference(ops):
    '''Expected delete_min outputs of a trace and the keys still live
    after it, from heapq with lazy invalidation.

    ``ops`` uses the trace tuples ``('i', key)``, ``('d',)`` and
    ``('k', handle, key)``, where handle is the insert's ordinal.
    Returns ``(outputs, remaining)``, ``remaining`` sorted.
    '''
    heap = []
    current = {}
    outputs = []
    handle = 0
    for op in ops:
        tag = op[0]
        if tag == 'i':
            current[handle] = op[1]
            heapq.heappush(heap, (op[1], handle))
            handle += 1
        elif tag == 'd':
            while True:
                key, h = heapq.heappop(heap)
                if current.get(h) == key:
                    break
            del current[h]
            outputs.append(key)
        else:
            current[op[1]] = op[2]
            heapq.heappush(heap, (op[2], op[1]))
    return outputs, sorted(current.values())


def mismatches(got, want):
    '''Number of operations whose output differs from the expected one;
    a missing or surplus output counts as one mismatch each.'''
    bad = abs(len(got) - len(want))
    for a, b in zip(got, want):
        if a != b:
            bad += 1
    return bad


class CountingKeys:
    '''Makes integer-valued keys that count ordering comparisons.

    ``wrap(v)`` returns a key ordered like ``v``.  Every ``<``, ``<=``,
    ``>`` and ``>=`` between two such keys adds one to ``count``.
    Equality is value equality and is not counted: tuple comparison
    asks ``==`` first, so ``(key, seq)`` pairs with equal user keys
    fall through to ``seq`` exactly as they do with plain ints.
    '''

    def __init__(self):
        self.count = 0
        counter = self

        class Key:
            __slots__ = ('v',)

            def __init__(self, v):
                self.v = v

            def __lt__(self, other):
                counter.count += 1
                return self.v < other.v

            def __le__(self, other):
                counter.count += 1
                return self.v <= other.v

            def __gt__(self, other):
                counter.count += 1
                return self.v > other.v

            def __ge__(self, other):
                counter.count += 1
                return self.v >= other.v

            def __eq__(self, other):
                return self.v == other.v

            def __ne__(self, other):
                return self.v != other.v

            def __hash__(self):
                return hash(self.v)

            def __repr__(self):
                return 'Key(%r)' % self.v

        self.wrap = Key

    def wrap_ops(self, ops):
        '''The trace with every key wrapped.'''
        wrap = self.wrap
        out = []
        for op in ops:
            if op[0] == 'i':
                out.append(('i', wrap(op[1])))
            elif op[0] == 'd':
                out.append(op)
            else:
                out.append(('k', op[1], wrap(op[2])))
        return out
