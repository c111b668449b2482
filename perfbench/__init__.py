"""Benchmark of the repgraph library: dense forward, sparse forward, training step.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
