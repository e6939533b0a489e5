"""Slow reference twins the equivalence tests compare
the single production code path against. Not collected: no ``test_*`` names.
"""
