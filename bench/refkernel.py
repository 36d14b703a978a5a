"""Reference kernel: the fixed unit in which the benchmark states item cost.

Host speed drifts: on a shared 2-core x86-64 host with Python 3.11, one
120-item ``theorem-check`` run took between 2.15 s and 3.63 s of wall time
across runs, with CPU time tracking wall time, so raw seconds do not repeat
within a tenth.  Timing this kernel immediately before every item and dividing the
item's time by it cancels most of that drift; the measured ratios held
within about 3 %.  The kernel does the same kind of work as the program
(``Fraction`` and ``int`` arithmetic in pure Python), imports nothing from
``doubleline`` and takes roughly a tenth of a median item.

Changing this kernel re-bases every recorded ``item_cost_*`` number, so it
must stay exactly as it is; ``EXPECTED_WORD`` guards against accidental edits.
"""

from __future__ import annotations

from fractions import Fraction

EXPECTED_WORD = 1901729607499865593

# The kernel's time on the 2-core x86-64 host this benchmark was written on,
# Python 3.11, in its faster regime.  Set-up time is reported rescaled to it.
REFERENCE_SECONDS = 0.00115


def reference_kernel() -> tuple[Fraction, int]:
    total = Fraction(0)
    word = 1
    for k in range(1, 241):
        total += Fraction(k * k - 7, 2 * k + 3) * Fraction(3 * k + 1, k % 9 + 2)
        word = (word * (k + 17) + k) % ((1 << 61) - 1)
    return total, word
