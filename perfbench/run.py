#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds `sixg-perfbench` (a cargo
package of its own in this directory) in release mode into
$CARGO_TARGET_DIR, default `.bench_build`, then runs it with the same
arguments. The last line of standard output is the JSON result; the full
record of each run (and the spans of a traced run) is written under
`.bench_build/perfbench-out/`. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "measure", "Cargo.toml")):
        sys.stderr.write("perfbench: the repository sources are missing next to perfbench/\n")
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: the build failed\n")
        return 1
    env["PERFBENCH_COMMIT"] = git_commit()
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench-out")
    binary = os.path.join(target, "release", "sixg-perfbench")
    run = subprocess.run([binary] + sys.argv[1:] + ["--out", out_dir], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
