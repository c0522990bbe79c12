"""Run ``run_tracking`` from a process that has a second thread alive.

A library that forks inside such a process (a Jupyter kernel is one) can
deadlock its caller, and Python 3.12+ warns of it with a
``DeprecationWarning`` at each fork. This script judges more than
160,000 characters of distinct prediction text while a second thread
waits, records every warning raised, prints them, and exits 1 if any is
a ``DeprecationWarning``. It needs only the standard library, so it runs
on interpreters that have no pytest:

    PYTHONPATH=src python3 tests/threaded_caller.py
"""

import json
import platform
import sys
import threading
import warnings
from pathlib import Path

DATA = Path(__file__).parent / "data"


def large_run():
    """600 corpus rows and one step of predictions for them, each a
    distinct text of about 300 characters: a numbered field, then four
    fixture methods."""
    lines = (DATA / "valid_methods.jsonl").read_text(encoding="utf-8").splitlines()
    methods = [json.loads(line)["code"] for line in lines if line.strip()]
    corpus = [{"id": f"ex-{i:03d}", "buggy": methods[i % len(methods)],
               "fixed": methods[(i + 1) % len(methods)]} for i in range(600)]
    preds = [{"id": row["id"], "step": 500,
              "prediction": " ".join([f"int v{i} ;",
                                      *(methods[(i + k) % len(methods)] for k in range(4))])}
             for i, row in enumerate(corpus)]
    return corpus, preds


def main() -> int:
    from repairdx.corpus import Prediction, RepairExample, TrackingConfig
    from repairdx.tracking import run_tracking

    corpus, preds = large_run()
    chars = sum(len(text) for text in {p["prediction"] for p in preds})
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            threads = threading.active_count()
            series, _records = run_tracking(
                [RepairExample(**row) for row in corpus],
                [Prediction(**row) for row in preds],
                TrackingConfig(sample_size=len(corpus), interval_steps=500, seed=1),
            )
    finally:
        stop.set()
        waiter.join(timeout=10)
    deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
    print(f"Python {platform.python_version()}: {series.final.n} predictions, "
          f"{chars} characters of distinct text, {threads} threads alive; "
          f"{len(caught)} warning(s), {len(deprecations)} DeprecationWarning(s)")
    for w in caught:
        print(f"  {w.category.__name__}: {w.message}")
    return 1 if deprecations else 0


if __name__ == "__main__":
    sys.exit(main())
