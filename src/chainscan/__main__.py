"""``python -m chainscan``: the command-line interface of :mod:`chainscan.cli`."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
