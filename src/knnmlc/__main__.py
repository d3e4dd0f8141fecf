"""``python -m knnmlc``: the command-line interface of ``knnmlc.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
