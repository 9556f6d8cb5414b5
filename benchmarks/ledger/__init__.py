"""The Skadi ledger: six workloads, both clocks, every layer timed from outside.

Run ``python benchmarks/ledger/run.py --seed N``; see README.md.
"""
