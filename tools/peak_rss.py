"""python3 tools/peak_rss.py FILE BOUND_MB: run `homnambu transfer-checks
FILE` once, its stdout discarded, print the child's peak RSS (ru_maxrss,
KB on Linux) against the bound, and exit 1 when it is over."""

import resource
import subprocess
import sys

if __name__ == "__main__":
    path, bound = sys.argv[1], float(sys.argv[2])
    subprocess.run(["homnambu", "transfer-checks", path],
                   stdout=subprocess.DEVNULL, check=True, timeout=300)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"transfer-checks peak RSS {peak:.1f} MB, bound {bound:g} MB")
    sys.exit(peak > bound)
