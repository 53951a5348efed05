"""Hash-once cache keys (``repro.utils.keys.HashedTuple``).

The compiled-trace and decode-image LRUs key programs by their full
sorted words tuple, so two distinct programs can never alias.  The key
hashes once, when it is made; every later get, insert, membership test
and eviction reuses that hash, and equality stays element-wise.
"""

import pickle

from repro.dta.compiled import trace_key
from repro.sim.predecode import _image_key
from repro.utils.keys import HashedTuple
from repro.workloads import get_kernel


class Counted:
    """An element that counts its hash computations; ``value`` sets the
    hash, ``tag`` only equality."""

    def __init__(self, value, tag=0):
        self.value = value
        self.tag = tag
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return self.value

    def __eq__(self, other):
        return (self.value, self.tag) == (other.value, other.tag)


class TestHashedTuple:
    def test_equals_and_hashes_like_a_tuple(self):
        items = ((0, 0x11), (4, 0x22), "name")
        key = HashedTuple(items)
        assert key == items and items == key
        assert hash(key) == hash(items)
        assert {items: 1}[key] == 1

    def test_hashes_once(self):
        element = Counted(7)
        key = HashedTuple((element, 3))
        assert element.hashes == 1
        cache = {key: "trace"}
        assert key in cache and cache[key] == "trace"
        cache.pop(key)
        assert element.hashes == 1

    def test_equal_hashes_never_alias(self):
        first = HashedTuple((Counted(5, tag=1),))
        second = HashedTuple((Counted(5, tag=2),))
        assert hash(first) == hash(second)
        cache = {first: "a", second: "b"}
        assert len(cache) == 2
        assert cache[first] == "a" and cache[second] == "b"

    def test_pickle_rebuilds_the_hash(self):
        key = HashedTuple((("fib", 0), (1, 2, 3)))
        copy = pickle.loads(pickle.dumps(key))
        assert type(copy) is HashedTuple
        assert copy == key and hash(copy) == hash(key)
        assert "_hash" not in pickle.dumps(key).decode("latin-1")


class TestProgramKeys:
    def test_trace_and_image_keys_hash_once(self, design):
        program = get_kernel("fib").program()
        key = trace_key(program, design)
        words = key[0][2]
        assert isinstance(key, HashedTuple)
        assert isinstance(words, HashedTuple)
        assert words == tuple(sorted(program.words.items()))
        image_key = _image_key(program, words)
        assert isinstance(image_key, HashedTuple)
        assert image_key[1] is words
        assert image_key == _image_key(program)

    def test_equal_programs_share_keys(self, design):
        from repro.asm.program import Program

        program = get_kernel("crc16").program()
        copy = Program(name=program.name, words=dict(program.words),
                       instructions=dict(program.instructions),
                       entry=program.entry)
        assert trace_key(copy, design) == trace_key(program, design)
        edited = dict(program.words)
        address = max(edited)
        edited[address] ^= 1
        changed = Program(name=program.name, words=edited,
                          entry=program.entry)
        assert trace_key(changed, design) != trace_key(program, design)
