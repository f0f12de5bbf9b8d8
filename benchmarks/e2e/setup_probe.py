"""One cold restart of the job service, for the benchmark's ``setup_s``.

Usage: ``python setup_probe.py STORE_DIR`` (with ``src`` on PYTHONPATH).

Imports ``repro``, opens the result store, job journal and run ledger in
STORE_DIR (replaying and compacting what the workload left there), starts
``Scheduler(workers=2)``, and prints the ``time.monotonic()`` instant the
scheduler was up.  The caller subtracts the instant it spawned this
interpreter, so interpreter start-up counts too.
"""

import sys
import time


def main(directory: str) -> None:
    import repro
    from repro.obs.ledger import RunLedger, ledger_path
    from repro.service.journal import JobJournal, journal_path

    store = repro.ResultStore(directory=directory)
    journal = JobJournal(journal_path(directory))
    ledger = RunLedger(ledger_path(directory))
    scheduler = repro.Scheduler(workers=2, store=store, journal=journal, ledger=ledger)
    up = time.monotonic()
    scheduler.shutdown()
    journal.close()
    ledger.close()
    print(repr(up))


if __name__ == "__main__":
    main(sys.argv[1])
