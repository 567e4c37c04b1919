"""Regenerate tests/golden/solver_digests.json, the solvers' output digests.

Each case of the corpus in tests/helpers.py (p2_digest_cases,
pnorm_digest_cases) is solved once with an on_event hook, and its SHA-256
covers x and r as float.hex, every work counter, the queue, the touched
gadgets, the converged flag and the event stream. tests/test_golden.py
recomputes them. The p < 2 digests go through libm's pow, so they are
stored with the platform tag they hold on. Run from the repository root:

    PYTHONPATH=src python scripts/solver_digests.py

Regenerate only for a change that is meant to move solver outputs, and say
which digests moved and why.
"""
import json
import os
import sys

TESTS = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                     "tests"))
sys.path.insert(0, TESTS)

from helpers import case_digest, libm_tag, p2_digest_cases, pnorm_digest_cases  # noqa: E402


def main():
    golden = {
        "p2": {name: case_digest(h, seeds, cfg) for name, h, seeds, cfg in p2_digest_cases()},
        "pnorm_platform": libm_tag(),
        "pnorm": {name: case_digest(h, seeds, cfg)
                  for name, h, seeds, cfg in pnorm_digest_cases()},
    }
    path = os.path.join(TESTS, "golden", "solver_digests.json")
    with open(path, "w") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")
    print(f"wrote {len(golden['p2'])} p = 2 and {len(golden['pnorm'])} p < 2 digests to {path}")


if __name__ == "__main__":
    main()
