"""Empty: the exact elimination that lived here now serves only as a test
oracle, in ``tests/helpers.py``.  The module stays so that the benchmark's
tracer, which imports every layer of the package by name, can still
import it.
"""
