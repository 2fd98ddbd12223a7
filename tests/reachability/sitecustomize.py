"""Reachability probe: records every ``src/repro`` function a process enters.

Not imported by the test suite.  ``audit.py`` copies this file into a fresh
directory and puts that directory first on ``PYTHONPATH``, so every Python
process of a corpus run -- the CLI, forked mp ranks and shard processes,
``repro launch`` roles, the e2e worker -- imports it at start-up as
``sitecustomize``.  It then appends one ``file<TAB>first line<TAB>qualname``
line to ``hits.tsv`` beside itself the first time the process enters a code
object under ``src/repro``.

Each line is one ``write`` on an ``O_APPEND`` descriptor, so processes that
share the file (a forked child inherits both the descriptor and the set of
code objects its parent already wrote) never interleave, and a process killed
by a signal, or leaving through ``os._exit``, has already written all it saw.
The hook is a global trace function that returns ``None``, so it fires once
per frame entry (and generator resume) and never per line.
"""

import os
import sys
import threading

_SRC = os.sep + os.path.join("src", "repro") + os.sep
_FD = os.open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "hits.tsv"),
              os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_seen = set()


def _enter(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if _SRC in code.co_filename:
            os.write(_FD, f"{code.co_filename}\t{code.co_firstlineno}\t"
                          f"{code.co_qualname}\n".encode())


sys.settrace(_enter)
threading.settrace(_enter)
