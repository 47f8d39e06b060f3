"""Concurrent serving stack: admission-controlled core + TCP front.

See :mod:`repro.serve.server` for the admission-control design (bounded
queue, load shedding, per-request deadlines, graceful drain, the
``qd_server_*`` SLO metrics) and :mod:`repro.serve.tcp` for the
JSON-lines wire front the CLI ``serve`` command exposes.
"""

from repro._lazy import lazy_exports

__all__ = ["QDServer", "QDTCPServer", "ServerResponse", "serve_tcp"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.server": ("QDServer", "ServerResponse"),
        "repro.serve.tcp": ("QDTCPServer", "serve_tcp"),
    },
)
