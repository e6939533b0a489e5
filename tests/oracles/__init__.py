"""Slow reference twins the equivalence tests and legacy benches compare
the single production code path against. Not collected: no ``test_*`` names.
"""
