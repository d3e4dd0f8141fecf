"""``python -m knnmlc`` and the ``knnmlc`` console script: the command-line
interface of ``knnmlc.cli``."""
import os
import sys

from .cli import EXIT_CLOSED_OUTPUT, main


def run() -> int:
    """``cli.main`` on the process's arguments. When standard output was
    closed under it (``EXIT_CLOSED_OUTPUT``), file descriptor 1 is pointed
    at the null device, so the interpreter's last flush of what could not
    be written does not fail again with a second message."""
    code = main()
    if code == EXIT_CLOSED_OUTPUT:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(run())
