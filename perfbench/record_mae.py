"""Record the train workload's test MAE for a range of seeds.

Usage (from the repository root)::

    python3 perfbench/record_mae.py 0 48

writes ``perfbench/expected_mae.json``, which the train workload checks
its own test MAE against.  Re-record only when a change is meant to alter
the model's arithmetic, and say so in the change description.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    lo, hi = int(sys.argv[1]), int(sys.argv[2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np

    from perfbench import workloads
    from perfbench.run import fingerprint

    scratch = workloads.WORK / "record-mae"
    scratch.mkdir(parents=True, exist_ok=True)
    table = {}
    try:
        for seed in range(lo, hi):
            _, train_set, test_set, _ = workloads._setup_train(
                seed, scratch, workloads.Outcome())
            trainer, _, _ = workloads._fit("advanced", train_set, test_set,
                                           workloads._scale(seed),
                                           workloads.TRAIN_EPOCHS)
            predictions = trainer.predict(test_set)
            table[str(seed)] = float(np.mean(np.abs(
                predictions - test_set.gaps.astype(np.float64))))
            print(seed, table[str(seed)], flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out = Path(__file__).resolve().parent / "expected_mae.json"
    payload = {"epochs": workloads.TRAIN_EPOCHS, "fingerprint": fingerprint(),
               "mae": table}
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
