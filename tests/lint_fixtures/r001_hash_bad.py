"""R001 positive fixture: builtin hash() outside a __hash__ method."""

BUCKET = hash("module-level") % 7


def seed_of(population):
    return hash(population) % 97


class Keyed:
    def __init__(self, name):
        self.slot = hash(name)

    def __eq__(self, other):
        return hash(self) == hash(other)
