"""Set-up probe: import envlab.cli, run a workload's warm-up, say "ready".

Started by run.py as ``python3 probe.py <workload> <scratch dir>``; the
parent times it from process start until the "ready" line.
"""
import sys

from run import load_cli, run_warmup

if __name__ == "__main__":
    run_warmup(load_cli(), sys.argv[1], sys.argv[2])
    print("ready", flush=True)
