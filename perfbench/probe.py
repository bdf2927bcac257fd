"""Set-up probe: a fresh interpreter that makes the program ready.

``python3 perfbench/probe.py engine`` imports what the engine workloads
call; ``... probe.py service`` also starts a two-worker
:class:`repro.service.RevisionService` and waits until both workers
have handshaken.  The probe then prints ``ready`` and waits for its
standard input to close before it shuts down, so the parent times
interpreter start to ready and nothing after.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(mode: str) -> None:
    from repro.logic.bitmodels import BitAlphabet  # noqa: F401
    from repro.revision.batch import BatchCache, revise_many  # noqa: F401

    service = None
    if mode == "service":
        from repro.service import RevisionService, ServiceConfig

        service = RevisionService(ServiceConfig(workers=2)).start()
        wait_handshaken(service)
    else:
        BatchCache()
    print("ready", flush=True)
    sys.stdin.read()
    if service is not None:
        service.stop()


def wait_handshaken(service, timeout_s: float = 30.0) -> None:
    """Block until every worker slot has sent its first heartbeat.

    The service exposes no readiness call, so this reads the
    supervisor's slot states (``idle`` once a worker has handshaken).
    """
    deadline = time.monotonic() + timeout_s
    while any(slot.state != "idle" for slot in service._supervisor.slots):
        if time.monotonic() > deadline:
            raise RuntimeError("service workers did not handshake in time")
        time.sleep(0.002)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "engine")
