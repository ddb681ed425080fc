"""Placeholder kept only for the benchmark harness's import.

``perfbench/worker.py`` runs ``from repro.analysis import dbf,
verdict_cache`` and reports the cache setting only when the module has an
``enabled`` attribute, so this empty module keeps that import working
while there is no verdict cache to report.  No code in ``repro`` uses it.
The module goes in the benchmark change that drops that import (the
harness under ``perfbench/`` only changes together with the benchmark).
"""
