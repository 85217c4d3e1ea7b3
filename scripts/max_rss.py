#!/usr/bin/env python3
"""Runs a command and fails when its maximum resident set size exceeds a bound.

    python3 scripts/max_rss.py MAX_MIB COMMAND [ARG...]

The command's standard output is discarded; its standard error passes
through. The maximum resident set size is the one `wait4` reports for the
command's process. The script prints it and exits 1 when it exceeds
MAX_MIB mebibytes, or with the command's own status when the command
fails.
"""

import os
import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    bound_mib = float(sys.argv[1])
    command = sys.argv[2:]
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    rss_mib = usage.ru_maxrss / 1024
    print(f"max RSS {rss_mib:.1f} MiB (bound {bound_mib:g} MiB): {' '.join(command)}")
    if code != 0:
        print(f"the command exited with status {code}", file=sys.stderr)
        sys.exit(code if code > 0 else 1)
    if rss_mib > bound_mib:
        print(f"max RSS {rss_mib:.1f} MiB exceeds the bound {bound_mib:g} MiB", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
