"""The repo benchmark: eight workloads, two clocks, one traced round.

``python3 -m bench`` runs every workload in a fresh process and prints
each end-to-end and per-layer metric by name with its unit; the driver
contract (``--workload NAME --seed N --seconds S --trace 0|1``) runs one
workload in this process. See ``bench/README.md`` for the glossary.

Nothing here imports ``repro`` at module level: the import is part of
``setup_s`` and is timed by the harness.
"""
