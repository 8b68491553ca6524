"""Toolkit for reconstructing direct-communication networks of Wikipedia
editor groups from talk pages, measuring their walk-structure metrics, and
relating structure to the quality of group output.

Each layer is imported from its own module (``wikicomm.graph``,
``wikicomm.network``, ``wikicomm.stats``, ...); importing the package loads
none of them.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
