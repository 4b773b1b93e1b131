"""Layered end-to-end benchmark of the MITTS reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in fresh child processes and prints every metric by
name and unit, ending with one JSON line.  See ``perfbench/README.md``.
"""
