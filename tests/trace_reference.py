"""Reference for :mod:`pacqa.normalform`: the trace selection the engine
used before every normal form went through the append rule.

It builds the whole dependence order of a word position by position, reads
the zero test off its cover pairs, and then selects the lexicographic
normal form by repeatedly taking the smallest letter among the minimal
unplaced occurrences.  It shares only the lookup tables of
:func:`pacqa.normalform.context_for` with the engine, not its step, and is
fast enough for the differential tests at sizes where
:class:`bfs_reference.BfsReference` is not.  Nothing in the package
imports it.
"""
from __future__ import annotations


def trace(ctx, word: tuple[int, ...]
          ) -> tuple[bool, int, tuple[int, ...]]:
    """``(zero, sign, canonical)`` of the class of ``word``, with
    ``word == sign * canonical`` modulo the relations."""
    indep, mono_before = ctx.indep, ctx.mono_before
    at = [0] * len(ctx.names)  # arrow -> bitmask of its positions
    pred = []   # position -> earlier positions it must stay after
    below = []  # position -> all positions below it in the order
    zero = False
    for j, y in enumerate(word):
        free = 0
        for x in indep[y]:
            free |= at[x]
        p = ((1 << j) - 1) & ~free
        pred.append(p)
        under = 0
        while p:  # the covers of j, right to left
            i = p.bit_length() - 1
            if mono_before[y] >> word[i] & 1:
                zero = True
            under |= below[i] | (1 << i)
            p &= ~under
        below.append(under)
        at[y] |= 1 << j
    letters = sorted(set(word))
    left = (1 << len(word)) - 1  # unplaced positions
    canonical = []
    inversions = 0
    while left:
        for x in letters:
            m = at[x] & left
            if m:
                j = (m & -m).bit_length() - 1  # x's first unplaced occurrence
                if not pred[j] & left:
                    break
        bit = 1 << j
        left ^= bit
        inversions += (left & (bit - 1)).bit_count()
        canonical.append(x)
    return zero, ctx.eps ** (inversions & 1), tuple(canonical)
