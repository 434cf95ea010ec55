"""Set-up probe, run in a fresh process by ``run.py``.

Reads config documents (a JSON list) from stdin, then times importing aoisim
and building every config through ``cli.build_sim_config``.  Prints the
seconds taken.
"""
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    docs = json.loads(sys.stdin.read())
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from aoisim import cli

    for doc in docs:
        cli.build_sim_config(doc)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
