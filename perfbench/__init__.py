"""Repository benchmark for the LIFL serving simulator.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds one seeded workload, times it, checks its outputs
and prints one JSON result line.  See ``perfbench/README.md``.
"""
