"""Entry point: ``python -m bench_e2e {run,compare}``."""

import sys

from bench_e2e.cli import main

if __name__ == "__main__":
    sys.exit(main())
