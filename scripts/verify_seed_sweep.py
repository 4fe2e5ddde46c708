"""Run every verify suite at seeds 0-199 and write, per check, its failing seeds.

    python scripts/verify_seed_sweep.py SWEEP.json     # from the repo root

The JSON gives the seeds at which any check fails, the checks that fail,
and one entry per check, ``suite.check``, in report order: the seeds at
which it fails and its worst residual over the seeds (NaN if any seed read
NaN), with the seed of that residual.  Two trees that compute the same numbers write the same
file.  The sweep takes one to two minutes on 2 CPUs; it is not part of
Tier-1.
"""

import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from codazzi import verify  # noqa: E402

SEEDS = range(200)


def sweep(seeds):
    """Per-check failing seeds and worst residual of ``verify.run_suites`` over ``seeds``."""
    checks = {}
    for seed in seeds:
        report = verify.run_suites(verify.SUITE_NAMES, seed)
        for suite in report["suites"]:
            for c in suite["checks"]:
                entry = checks.setdefault(
                    f"{suite['suite']}.{c['check']}",
                    {"failing_seeds": [], "residuals": []},
                )
                entry["residuals"].append(c["residual"])
                if not c["pass"]:
                    entry["failing_seeds"].append(seed)
    for entry in checks.values():
        residuals = entry.pop("residuals")
        worst = int(np.argmax(residuals))  # the first NaN, if any
        entry["worst_residual"] = residuals[worst]
        entry["worst_seed"] = seeds[worst]
    failing = sorted({s for entry in checks.values() for s in entry["failing_seeds"]})
    return {
        "seeds": [seeds[0], seeds[-1]],
        "failing_seeds": failing,
        "failing_checks": [name for name, e in checks.items() if e["failing_seeds"]],
        "checks": checks,
    }


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    result = sweep(SEEDS)
    with open(argv[0], "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(
        f"{len(result['failing_seeds'])} of {len(SEEDS)} seeds fail, "
        f"in {len(result['failing_checks'])} checks: {', '.join(result['failing_checks'])}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
