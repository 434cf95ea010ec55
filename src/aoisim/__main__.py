"""``python -m aoisim``: the same command line as the ``aoisim`` script."""
from .cli import entry

if __name__ == "__main__":
    entry()
