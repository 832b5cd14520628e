"""Loads the benchmark's span wrappers into processes it launches.

The benchmark puts this directory first on ``PYTHONPATH`` of the servers
it starts and sets ``PERFBENCH_SPANS_DIR``; fleet workers inherit both, so
every ``repro serve`` process records spans and writes them to
``$PERFBENCH_SPANS_DIR/spans-<pid>.json`` when it exits.
"""

import os

_SPANS_DIR = os.environ.get("PERFBENCH_SPANS_DIR")
if _SPANS_DIR:
    import atexit
    import sys

    sys.path.append(os.environ["PERFBENCH_ROOT"])
    from perfbench import spans as _spans

    _recorder = _spans.install(_spans.Recorder())
    atexit.register(lambda: _recorder.dump(
        os.path.join(_SPANS_DIR, f"spans-{os.getpid()}.json")))
