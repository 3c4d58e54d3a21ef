"""Shared utilities: units, table rendering, ASCII plotting, the root seed.

These are deliberately dependency-light helpers used by every other
subsystem. Nothing in here knows about MHD, GPUs, or Fortran.
"""
