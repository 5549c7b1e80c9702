"""Run the qck command line with the process pool pinned to the benchmark's width.

    PYTHONPATH=src python3 perfbench/qck_cli.py verify --suite all --parallel

This is `qck.cli.main` unchanged, except that `--parallel` starts
`workloads.POOL_WORKERS` workers instead of one per core, so that runs on
machines of different sizes do the same work.
"""

import sys

from qck import cli, suites

from workloads import pin_pool

suites.ProcessPoolExecutor = pin_pool(suites)

if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[1:]))
