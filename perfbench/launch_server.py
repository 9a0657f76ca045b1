"""Run ``repro.service.server.serve`` with the benchmark's speed probe.

The measured twin of ``repro serve --port 0``: same configuration, plus
a :class:`benchutil.SpeedProbe` on the server's main thread, and with
``--spans-out`` the span wrappers of :func:`tracer.install`.  On SIGINT
the server shuts down gracefully and the probe samples (and spans) are
written out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchutil import SpeedProbe


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probes-out", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args()

    from repro.service.server import ServiceConfig, serve

    rec = None
    if args.spans_out:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    probe = SpeedProbe()
    try:
        with probe:
            return serve(ServiceConfig(port=0))
    finally:
        args.probes_out.write_text(json.dumps(probe.samples))
        if rec is not None:
            rec.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
