"""Cache keys that hash once."""


class HashedTuple(tuple):
    """A tuple that computes its hash once, when it is made.

    A plain tuple re-hashes every element on each ``hash()``, so a cache
    key holding a whole program image (hundreds of ``(address, word)``
    pairs) pays for it again on every get, insert, membership test and
    eviction.  Equality is still the tuple's element-wise comparison, so
    two distinct contents never alias, and a ``HashedTuple`` equals and
    hashes like the plain tuple of the same items.
    """

    def __new__(cls, items=()):
        self = super().__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes are per process: rebuild, never ship the hash
        return type(self), (tuple(self),)
