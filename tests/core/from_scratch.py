"""From-scratch reference for the context-backed ``partition()`` loop."""

from __future__ import annotations


class FromScratch:
    """``test`` with its per-core analysis contexts hidden.

    Every attribute is forwarded, but ``make_context`` returns None, so
    :func:`repro.core.partition` probes each candidate core from scratch
    (rebuild the core's task set, run the test) — the reference the
    context-backed loop must equal bit for bit.
    """

    def __init__(self, test):
        self._test = test

    def __getattr__(self, name):
        return getattr(self._test, name)

    def make_context(self, service=None):
        return None
