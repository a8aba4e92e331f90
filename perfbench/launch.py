"""Run one ``repro-pll`` command, optionally traced, and report its peak RSS.

Usage::

    python3 perfbench/launch.py [--spans SPANS.json] [--peak PEAK.txt] -- <repro-pll args>

With ``--spans``, every layer's entry points are wrapped (``tracer.py``) and
the spans, kept in memory while the command runs, are written to
``SPANS.json`` when it returns, which for ``serve`` is after the SIGTERM
drain.  With ``--peak``, the process's own VmHWM in MiB is written to
``PEAK.txt`` at exit.  (A parent's rusage would not do: a child started with
``vfork`` inherits its parent's high-water mark.)
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Recorder, install  # noqa: E402


def peak_rss_mib(pid="self") -> float:
    """VmHWM of process ``pid`` (this one by default), in MiB."""
    path = f"/proc/{pid}/status"
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write the traced spans here at exit")
    parser.add_argument("--peak", help="write this process's VmHWM (MiB) here at exit")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.command[:1] != ["--"] or len(args.command) < 2:
        parser.error("give the repro-pll arguments after --")
    recorder = None
    if args.spans:
        recorder = Recorder()
        install(recorder)
    import repro.cli

    try:
        return repro.cli.main(args.command[1:])
    finally:
        if recorder is not None:
            recorder.dump(args.spans)
        if args.peak:
            with open(args.peak, "w", encoding="utf-8") as handle:
                handle.write(f"{peak_rss_mib()}\n")


if __name__ == "__main__":
    sys.exit(main())
