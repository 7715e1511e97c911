"""The identity check past its shape gate, against the Bareiss evaluation.

Run from the repository root:

    PYTHONPATH=src python -W error tests/wide_shapes.py

It lifts ``periodkit.oracle``'s gate inside this process alone, then on
every tableau of 4x4, 4x5, 5x4 and 5x5 runs ``verify_proposition`` and
checks that its ``sign`` is the predicted sign and the ratio that
``tests/test_oracle.py``'s Bareiss evaluation of Mat1 gives at a seeded
point (``_assert_the_evaluation_agrees``).  It never reads the report's
``rhs``, which the gate bounds.  It prints one line per shape, with the
check's seconds, and exits 1 on the first tableau that disagrees.
pytest does not collect this file: its name does not start with
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

SHAPES = ((4, 4), (4, 5), (5, 4), (5, 5))


def main() -> int:
    orc.MAX_RANK, orc.MAX_SIZE = 5, 25
    for n, np_ in SHAPES:
        rng = random.Random(f"wide/{n}x{np_}")
        checked, seconds = 0, 0.0
        for slots in combinations(range(n + np_), n):
            ctx = PairContext.build(*pair_of_shape(n, np_, slots))
            start = time.perf_counter()
            rep = orc.verify_proposition(ctx)
            seconds += time.perf_counter() - start
            try:
                assert rep.ok and rep.tests == (1, 1), (rep.ok, rep.tests)
                _assert_the_evaluation_agrees(ctx, rep, rng)
            except AssertionError as err:
                print(f"{n}x{np_} slots {slots}: {err}", file=sys.stderr)
                return 1
            checked += 1
        print(f"{n}x{np_}: {checked} tableaux agree, check {seconds:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
