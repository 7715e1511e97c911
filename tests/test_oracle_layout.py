"""The Mat1 column layout, pinned against a recorded file.

``tests/data/oracle_layout.json`` holds, for 3 seeded pairs of every rank
shape n, n' <= 4 with nn' <= 12: the column descriptions of Mat1, the
exponent tuple of the cleared period product, the predicted column sign
and, for shapes up to 3x3, the text of every Mat1 entry.  Any change to
how the columns are listed, scaled or signed shows up as a difference.

Regenerate (only when the layout is meant to change) with
``PYTHONPATH=src python tests/test_oracle_layout.py > tests/data/oracle_layout.json``.
"""

import json
import random
import sys
from pathlib import Path

from periodkit import PairContext
from periodkit.oracle import _kronecker_column_sign, build_mat1, cleared_period_product
from periodkit.sampling import random_pp_free_pair

RECORDED = Path(__file__).parent / "data" / "oracle_layout.json"


def oracle_layout() -> list[dict]:
    out = []
    for n in range(1, 5):
        for np_ in range(1, 5):
            if n * np_ > 12:
                continue
            rng = random.Random(f"oracle-layout/{n}x{np_}")
            for pair in range(3):
                ctx = PairContext.build(*random_pp_free_pair(rng, 4, ranks=(n, np_)))
                mx = build_mat1(ctx)
                ((cleared, _),) = cleared_period_product(ctx).terms.items()
                entry = {
                    "shape": f"{n}x{np_}",
                    "pair": pair,
                    "col_desc": [list(c) for c in mx.col_desc],
                    "cleared": list(cleared),
                    "sign": _kronecker_column_sign(ctx),
                }
                if n <= 3 and np_ <= 3:
                    entry["rows"] = [[str(p) for p in row] for row in mx.rows]
                out.append(entry)
    return out


def test_mat1_layout_matches_recorded_file():
    assert oracle_layout() == json.loads(RECORDED.read_text())


if __name__ == "__main__":
    json.dump(oracle_layout(), sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")
