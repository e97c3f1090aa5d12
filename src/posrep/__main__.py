"""``python -m posrep``: the command-line interface of ``posrep.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
