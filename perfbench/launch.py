"""Run one dirquant command in a fresh process, as the benchmark's child.

Usage: python3 launch.py SPEC.json

SPEC holds ``argv`` (the CLI arguments, or null to stop after the import),
``stamp`` (where to write the import-done time and the peak resident set),
optional ``trace`` (where to write the span trace) with its operation id
``op``, and optional ``desk_profile`` (ExperimentConfig fields that replace
``simlab.DESK_PROFILE``, since the CLI has no key for the oracle size).
The exit code is the command's.
"""

import json
import sys
import time

import dirquant
import dirquant.cli

IMPORT_DONE = time.monotonic()


def peak_rss_kib():
    """High-water resident set of this process's own memory since exec.

    getrusage's maxrss is not used: on Linux it also holds the parent's
    resident set at the fork that started this process.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def run(spec: dict) -> int:
    if spec["argv"] is None:
        return 0
    if spec.get("desk_profile"):
        from dataclasses import replace

        from dirquant import simlab

        current = getattr(simlab, "DESK_PROFILE", None)
        if not isinstance(current, simlab.ExperimentConfig):
            print("launch: simlab.DESK_PROFILE is gone; cannot size the desk study", file=sys.stderr)
            return 70
        simlab.DESK_PROFILE = replace(current, **spec["desk_profile"])
    recorder = None
    if spec.get("trace"):
        import spans

        recorder = spans.install(spec["op"])
    try:
        return dirquant.cli.main(spec["argv"])
    finally:
        if recorder is not None:
            recorder.dump(spec["trace"])


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    try:
        return run(spec)
    finally:
        with open(spec["stamp"], "w") as handle:
            json.dump({"import_done": IMPORT_DONE, "package": dirquant.__file__,
                       "peak_rss_kib": peak_rss_kib()}, handle)


if __name__ == "__main__":
    sys.exit(main())
