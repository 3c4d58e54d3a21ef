"""Experiment drivers: one module per table, figure and ablation, listed
in :mod:`repro.experiments.catalog`."""
