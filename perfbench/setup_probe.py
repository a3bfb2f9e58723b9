"""Child process behind the setup_s metric.

It does what a benchmark run does before its first job (see
``workloads.set_up``), then writes ``ready`` to stdout.  The parent times
the span from starting this process to reading that line.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import workloads


def main(argv):
    workload, seed = argv[0], int(argv[1])
    workloads.set_up(workload, seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
