"""Record the expected stdout of every cli-cold command into bench/expected/.

Run from the root of a checkout, and only for a change that deliberately
alters CLI output:

    python3 bench/record_cli.py
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs maxext on the path)


def main() -> int:
    env = workloads.child_env(ROOT)
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    for name, argv in workloads.CLI_COMMANDS:
        proc = workloads.run_cli(ROOT, env, argv)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr.decode()}", file=sys.stderr)
            return 1
        with open(os.path.join(workloads.EXPECTED_DIR, name + ".out"), "wb") as fh:
            fh.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
