"""Record the golden stdout digests of the fixed catalog_cli calls.

    python3 bench/record_golden.py

Run only at a commit whose CLI output is known to be right: the benchmark
fails every later call whose exit code or stdout digest differs.
"""

import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
os.environ.pop("SEA_CATALOG", None)

import workloads  # noqa: E402


def main():
    entries = []
    for argv in workloads.fixed_argvs():
        code, out, _ = workloads.run_cli(argv)
        entries.append({"argv": argv, "exit": code, "sha256": workloads.digest(out)})
    workloads.GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} digests in {workloads.GOLDEN}")


if __name__ == "__main__":
    main()
