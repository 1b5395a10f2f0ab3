"""R001 negative fixture: hash() inside __hash__, and stable alternatives."""

import hashlib
import zlib


class Marking:
    def __init__(self, tokens):
        self._tokens = dict(tokens)

    def __hash__(self):
        return hash(frozenset(self._tokens.items()))


class Nested:
    def __hash__(self):
        def combine(parts):
            return hash(tuple(parts))

        return combine([1, 2])


def stable_seeds(population, table):
    crc = zlib.crc32(population.encode("utf-8"))
    digest = hashlib.sha256(population.encode("utf-8")).hexdigest()
    # Attribute calls named hash are not the builtin.
    keyed = table.hash(population)
    return crc, digest, keyed
