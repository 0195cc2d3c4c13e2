"""Runs a command with its stdout in a file and prints its footprint.

Usage: python3 wait4.py OUT CMD [ARG]...

Prints the command's wall time, peak resident set and minor page
faults (from wait4's rusage), and exits with the command's status.
"""
import os
import sys
import time

out, cmd = sys.argv[1], sys.argv[2:]
fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
start = time.monotonic()
pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)])
_, status, usage = os.wait4(pid, 0)
print(f"{' '.join(cmd[1:])}: wall {time.monotonic() - start:.1f} s, "
      f"max RSS {usage.ru_maxrss / 1024:.1f} MiB, minor faults {usage.ru_minflt}")
sys.exit(os.waitstatus_to_exitcode(status))
