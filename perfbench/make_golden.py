"""Record the golden output digests of every pooled benchmark case.

    python3 perfbench/make_golden.py

Runs each case of each workload's pool once (see workloads.py), requires
its verdict to pass, and writes the SHA-256 of its output to
perfbench/golden.json.  Run it only on a commit whose reports are known
good: the benchmark counts any later difference as a failed op, which is
the project's rule that not one reported byte may change.
"""

from __future__ import annotations

import json
import sys

from run import HERE, git_rev, load_package
import workloads


def main() -> int:
    golden = {"recorded_at": git_rev()}
    for name, pool in workloads.POOLS.items():
        digests = {}
        for entry in pool(load_package()):
            ok, text = entry.check(entry.run())
            if not ok:
                print(f"{name} case {entry.key} fails its verdict", file=sys.stderr)
                return 1
            digests[entry.key] = workloads.digest(text)
        golden[name] = digests
        print(f"{name}: {len(digests)} cases", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
