"""The identity check past its shape gate, on every tableau up to 7x7.

Run from the repository root:

    PYTHONPATH=src python -W error tests/wide_shapes.py

It lifts ``periodkit.oracle``'s gate inside this process alone.  First
it runs ``verify_proposition`` on every tableau with n, n' <= 7, 12,854
of them, and requires ``ok``, ``sign`` equal to ``predicted_sign``,
n ** n' nonzero minors in each of the n groups, all n' blocks matched,
and one factor test against B's and one against A's generic matrix.
Then on every tableau of 4x4, 4x5, 5x4 and 5x5 it checks that the
check's ``sign`` is the predicted sign and the ratio that
``tests/test_oracle.py``'s Bareiss evaluation of Mat1 gives at a
seeded point (``_assert_the_evaluation_agrees``).  It never reads
the report's ``rhs``, which the gate bounds.  It prints one line per
shape, with the check's seconds, and exits 1 on the first tableau that
fails.  pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import random
import sys
import time
from itertools import combinations

import periodkit.oracle as orc
from periodkit.deligne import PairContext
from periodkit.sampling import pair_of_shape
from test_oracle import _assert_the_evaluation_agrees

MAX_RANK = 7
SHAPES = ((4, 4), (4, 5), (5, 4), (5, 5))


def _run(n: int, np_: int, rng: random.Random | None = None) -> bool:
    """Check every tableau of the shape, and with ``rng`` compare the Bareiss evaluation too."""
    checked, seconds = 0, 0.0
    for slots in combinations(range(n + np_), n):
        ctx = PairContext.build(*pair_of_shape(n, np_, slots))
        start = time.perf_counter()
        rep = orc.verify_proposition(ctx)
        seconds += time.perf_counter() - start
        try:
            fields = (rep.ok, rep.sign, rep.nonzero_minors, rep.blocks, rep.tests)
            want = (True, rep.predicted_sign, (n ** np_,) * n, np_, (1, 1))
            assert fields == want, fields
            if rng is not None:
                _assert_the_evaluation_agrees(ctx, rep, rng)
        except AssertionError as err:
            print(f"{n}x{np_} slots {slots}: {err}", file=sys.stderr)
            return False
        checked += 1
    what = "pass" if rng is None else "agree with the Bareiss evaluation"
    print(f"{n}x{np_}: {checked} tableaux {what}, check {seconds:.2f} s")
    return True


def main() -> int:
    orc.MAX_RANK, orc.MAX_SIZE = MAX_RANK, MAX_RANK * MAX_RANK
    for n in range(1, MAX_RANK + 1):
        for np_ in range(1, MAX_RANK + 1):
            if not _run(n, np_):
                return 1
    for n, np_ in SHAPES:
        if not _run(n, np_, random.Random(f"wide/{n}x{np_}")):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
