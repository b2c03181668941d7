"""Cached repair plans: equivalence with the scalar reference + pickling.

The vectorised, cached ``repair_vector`` must return exactly what the
original double loop over :meth:`GaloisField.mul` computed, for every
(lost chunk, helper set) pair — and codes must survive pickling so the
parallel experiment driver can ship them to worker processes.
"""

import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import BoundedCache
from repro.erasure.lrc import LRCCode
from repro.erasure.rs import RSCode
from repro.errors import ConfigurationError


def reference_repair_vector(code, lost_index, helpers):
    """``y = g_lost · X`` via the scalar double loop (pre-optimisation)."""
    inverse = code.generator.take_rows(list(helpers)).invert()
    g_lost = code.generator.row(lost_index)
    f = code.field
    y = []
    for col in range(code.k):
        acc = 0
        for i in range(code.k):
            acc ^= f.mul(int(g_lost[i]), int(inverse.data[i, col]))
        y.append(acc)
    return y


class TestRepairVectorEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rs_matches_reference(self, data):
        k = data.draw(st.integers(2, 6))
        m = data.draw(st.integers(1, 4))
        construction = data.draw(st.sampled_from(["vandermonde", "cauchy"]))
        code = RSCode(k, m, construction=construction)
        lost = data.draw(st.integers(0, code.n - 1))
        survivors = [i for i in range(code.n) if i != lost]
        helpers = tuple(
            data.draw(
                st.permutations(survivors).map(lambda p: sorted(p[:k]))
            )
        )
        assert code.repair_vector(lost, helpers) == reference_repair_vector(
            code, lost, helpers
        )

    def test_gf16_matches_reference(self):
        code = RSCode(20, 10, w=16)
        helpers = tuple(range(5, 25))
        assert code.repair_vector(0, helpers) == reference_repair_vector(
            code, 0, helpers
        )

    def test_cache_hit_returns_equal_fresh_list(self):
        code = RSCode(6, 3)
        helpers = (1, 2, 3, 4, 5, 6)
        first = code.repair_vector(0, helpers)
        second = code.repair_vector(0, helpers)
        assert first == second
        assert first is not second  # callers may mutate their copy
        assert code._repair_cache.hits >= 1

    def test_cache_is_bounded(self):
        code = RSCode(6, 3)
        assert code._repair_cache.maxsize == 2048
        assert code._inverse_cache.maxsize == 512


class TestBoundedCache:
    def test_eviction_order_and_counters(self):
        cache = BoundedCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.get("b") is None
        assert cache.hits == 3 and cache.misses == 1

    def test_get_or_build_builds_once(self):
        cache = BoundedCache(maxsize=4)
        calls = []
        for _ in range(3):
            cache.get_or_build("k", lambda: calls.append(1) or "v")
        assert cache.get("k") == "v"
        assert len(calls) == 1

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            BoundedCache(maxsize=0)

    def test_concurrent_access_under_eviction(self):
        """Threads sharing a full cache never see a ``KeyError`` from an
        eviction racing a lookup, and every lookup is counted once."""
        cache = BoundedCache(maxsize=2)
        threads, rounds = 4, 50_000
        start = threading.Barrier(threads)
        errors = []

        def hammer(seed):
            rng = random.Random(seed)
            start.wait()
            try:
                for i in range(rounds):
                    key = rng.randrange(3)
                    if i % 3 == 0:
                        cache.get(key)
                    elif i % 3 == 1:
                        cache.put(key, i)
                    else:
                        cache.get_or_build(key, lambda: i)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=hammer, args=(t,)) for t in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        lookups = threads * sum(1 for i in range(rounds) if i % 3 != 1)
        assert cache.hits + cache.misses == lookups


class TestCodePickling:
    @pytest.mark.parametrize(
        "code",
        [
            RSCode(6, 3),
            RSCode(4, 2, construction="cauchy"),
            RSCode(20, 10, w=16),
            LRCCode(6, 2, 2),
        ],
        ids=repr,
    )
    def test_roundtrip_preserves_generator(self, code):
        clone = pickle.loads(pickle.dumps(code))
        assert type(clone) is type(code)
        assert np.array_equal(clone.generator.data, code.generator.data)
        assert clone.field is code.field  # gf() singleton survives

    def test_warm_cache_not_shipped(self):
        code = RSCode(6, 3)
        code.repair_vector(0, (1, 2, 3, 4, 5, 6))
        clone = pickle.loads(pickle.dumps(code))
        assert len(clone._repair_cache) == 0
        # ...and the clone still repairs correctly.
        assert clone.repair_vector(0, (1, 2, 3, 4, 5, 6)) == \
            code.repair_vector(0, (1, 2, 3, 4, 5, 6))
