"""Shaped-amplitude coding toolbox: rate solvers, typicality enumeration and
a random sign-coding decode experiment for quantized-AWGN ASK channels.

The package is used through its modules (`paslab.cli`, `paslab.signcode`,
...); it re-exports nothing.
"""

__version__ = "0.1.0"
