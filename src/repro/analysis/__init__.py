"""Static + runtime DC-safety analysis (see docs/ANALYSIS.md).

This ``__init__`` imports nothing: ``repro.runtime`` imports
:mod:`repro.analysis.dependence` for its hazard logic, and the analyzer
and porter load without numpy or the simulator. Callers import the
submodule they use:

* ``repro.analysis.fortran_lint`` -- static analyzer over Fortran sources;
* ``repro.analysis.shadow`` -- runtime shadow checker for the dispatcher;
* ``repro.analysis.report`` -- findings table / JSON / SARIF exporters;
* ``repro.analysis.fixtures`` -- seeded-bug and clean test corpora.
"""
