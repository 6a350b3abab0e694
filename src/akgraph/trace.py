"""Warnings of one run, held by the run rather than by a global log handler.

A Trace records (module, message) pairs.  While a trace is current (inside
its `with` block, through a context variable, so a thread started elsewhere
starts with none), warn() appends to it and, if the trace echoes, writes
`module: message` to stderr at once.  With no current trace, warn() hands
the message to the module's `logging` logger, so that a direct library
caller's log set-up applies; only that path imports `logging`.
"""

import sys
from contextvars import ContextVar

_current = ContextVar("akgraph_trace", default=None)


class Trace:
    """The warnings raised while this trace is current, in order."""

    def __init__(self, echo=False):
        self.echo = echo
        self.records = []

    def __enter__(self):
        self._token = _current.set(self)
        return self

    def __exit__(self, *exc):
        _current.reset(self._token)


def current():
    """The current Trace, or None."""
    return _current.get()


def warn(module, message):
    """Record a warning of the named module in the current trace, or log it."""
    trace = _current.get()
    if trace is None:
        import logging
        logging.getLogger(module).warning(message)
        return
    trace.records.append((module, message))
    if trace.echo:
        sys.stderr.write("%s: %s\n" % (module, message))
