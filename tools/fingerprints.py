"""Print one sha256 per benchmark item and seed: the bit-identity check of a change.

Each workload of ``perfbench/workloads.py`` is set up at seeds 1 and 2 as
``perfbench/run.py`` sets it up (its warm-up included) and run once, item by
item; each item's fingerprint (the output that ``perfbench/run.py`` compares
between passes) is hashed by that script's own rule. A last line hashes the
stdout of ``lwlattice verify --suite all --mode mc --mc-samples 200000
--seed 3``, the Monte Carlo suite that CI runs: most of its oracle calls
sample under a lifted (repaired) envelope, which no benchmark item does. Two
trees compute bit-identical results exactly when their outputs match line for
line::

    python tools/fingerprints.py > before.txt   # at the parent commit
    python tools/fingerprints.py > after.txt    # with the change
    diff before.txt after.txt

The package is imported from ``src/`` of this checkout, the workloads from its
``perfbench/``; nothing there is changed.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from run import WORKLOADS, _digest, setup  # noqa: E402

SEEDS = (1, 2)
MC_VERIFY = ["verify", "--suite", "all", "--mode", "mc", "--mc-samples", "200000", "--seed", "3"]


def main() -> int:
    for seed in SEEDS:
        for name in WORKLOADS:
            wl, _ = setup(name, seed)
            for item in wl.items:
                print(name, seed, item.name, _digest(item.fingerprint(item.run())), flush=True)
    from lwlattice.cli import dispatch  # setup has put this checkout's src/ on the path

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        dispatch(MC_VERIFY)
    print(*MC_VERIFY, hashlib.sha256(out.getvalue().encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
