"""Unit and property tests for the modular-exponentiation kernels."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.crypto import G, G_TABLE_BITS, G_TABLE_WINDOW, KEY_TABLE_BITS, P, Q
from repro.common.multiexp import FixedBaseTable, WindowTableLRU, multiexp
from repro.common.tracing import PERF

SMALL_PRIME = 1009


class TestFixedBaseTable:
    def test_matches_builtin_pow(self):
        table = FixedBaseTable(G, P, Q.bit_length())
        for exponent in (0, 1, 2, 15, 16, 17, 255, Q - 1, Q // 3):
            assert table.pow(exponent) == pow(G, exponent, P)

    def test_small_modulus(self):
        table = FixedBaseTable(7, SMALL_PRIME, 32)
        for exponent in range(0, 300, 7):
            assert table.pow(exponent) == pow(7, exponent, SMALL_PRIME)

    def test_exponent_zero_and_one(self):
        table = FixedBaseTable(5, SMALL_PRIME, 16)
        assert table.pow(0) == 1
        assert table.pow(1) == 5

    def test_covers_reflects_table_range(self):
        table = FixedBaseTable(3, SMALL_PRIME, 16)
        assert table.covers(0)
        assert table.covers((1 << 16) - 1)
        assert not table.covers(1 << 20)
        assert not table.covers(-1)

    def test_fallback_past_table_range(self):
        table = FixedBaseTable(3, SMALL_PRIME, 8)
        exponent = 1 << 40
        assert table.pow(exponent) == pow(3, exponent, SMALL_PRIME)

    @pytest.mark.parametrize(
        "bits, window", [(G_TABLE_BITS, G_TABLE_WINDOW), (KEY_TABLE_BITS, 4)]
    )
    def test_coverage_boundary(self, bits, window):
        # The scheme's own table shapes: exact on both sides of the
        # covered width, the far side (and q-1) through plain pow().
        base = pow(G, 12345, P)
        table = FixedBaseTable(base, P, bits, window)
        edge = window * -(-bits // window)  # whole digits: >= bits
        assert table.covers((1 << bits) - 1)
        assert table.covers((1 << edge) - 1)
        assert not table.covers(1 << edge)
        for exponent, windowed in (
            ((1 << bits) - 1, True),
            ((1 << edge) - 1, True),
            (1 << bits, edge > bits),
            (1 << edge, False),
            (Q - 1, False),
        ):
            PERF.reset()
            assert table.pow(exponent) == pow(base, exponent, P)
            assert (PERF.modexp_windowed, PERF.modexp_full) == (
                (1, 0) if windowed else (0, 1)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.integers(min_value=2, max_value=SMALL_PRIME - 1),
        exponent=st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_property_agrees_with_pow(self, base, exponent):
        table = FixedBaseTable(base, SMALL_PRIME, 32)
        assert table.pow(exponent) == pow(base, exponent, SMALL_PRIME)


class TestWindowTableLRU:
    def test_builds_table_only_after_threshold(self):
        lru = WindowTableLRU(maxsize=4, build_after=3)
        for use in range(1, 3):
            assert lru.powmod(G, use, P, 16) == pow(G, use, P)
            assert not lru.has_table(G)
        assert lru.powmod(G, 3, P, 16) == pow(G, 3, P)
        assert lru.has_table(G)

    def test_lru_eviction_order(self):
        lru = WindowTableLRU(maxsize=2, build_after=1)
        lru.powmod(3, 5, SMALL_PRIME, 16)
        lru.powmod(5, 5, SMALL_PRIME, 16)
        lru.powmod(3, 6, SMALL_PRIME, 16)  # refresh 3
        lru.powmod(7, 5, SMALL_PRIME, 16)  # evicts 5, the least recent
        assert lru.has_table(3)
        assert lru.has_table(7)
        assert not lru.has_table(5)
        assert len(lru) == 2

    def test_cold_entries_participate_in_eviction(self):
        # Use-counters compete for the same LRU slots as built tables:
        # the oldest cold base is evicted first, losing its count.
        lru = WindowTableLRU(maxsize=2, build_after=5)
        for base in (3, 5, 7):
            lru.powmod(base, 2, SMALL_PRIME, 16)
        assert len(lru) == 2
        assert 3 not in lru._entries  # the least-recent cold entry
        assert {5, 7} <= set(lru._entries)
        assert lru.table_count() == 0

    def test_hot_table_evicted_when_least_recent(self):
        lru = WindowTableLRU(maxsize=2, build_after=1)
        lru.powmod(3, 5, SMALL_PRIME, 16)   # builds a table for 3
        lru.powmod(5, 5, SMALL_PRIME, 16)   # builds a table for 5
        lru.powmod(5, 6, SMALL_PRIME, 16)   # table hit refreshes 5
        lru.powmod(7, 5, SMALL_PRIME, 16)   # evicts 3 despite its table
        assert not lru.has_table(3)
        assert lru.has_table(5) and lru.has_table(7)
        assert lru.table_count() == 2

    def test_use_counts_tracked_per_base(self):
        lru = WindowTableLRU(maxsize=4, build_after=3)
        for exponent in (4, 5):
            lru.powmod(3, exponent, SMALL_PRIME, 16)
            lru.powmod(5, exponent, SMALL_PRIME, 16)
        lru.powmod(3, 6, SMALL_PRIME, 16)  # third use: only 3 goes hot
        assert lru.has_table(3)
        assert not lru.has_table(5)
        assert lru.table_count() == 1
        assert len(lru) == 2

    def test_results_correct_before_and_after_build(self):
        lru = WindowTableLRU(maxsize=8, build_after=2)
        for exponent in (9, 10, 11, 12):
            assert lru.powmod(11, exponent, SMALL_PRIME, 16) == pow(11, exponent, SMALL_PRIME)

    def test_rejects_zero_maxsize(self):
        with pytest.raises(ValueError):
            WindowTableLRU(maxsize=0)

    def test_clear(self):
        lru = WindowTableLRU(maxsize=4, build_after=1)
        lru.powmod(3, 5, SMALL_PRIME, 16)
        lru.clear()
        assert len(lru) == 0


class TestMultiexp:
    def test_matches_product_of_pows(self):
        pairs = [(3, 17), (5, 123456), (7, 1), (11, (1 << 128) - 3)]
        expected = 1
        for base, exponent in pairs:
            expected = expected * pow(base, exponent, SMALL_PRIME) % SMALL_PRIME
        assert multiexp(pairs, SMALL_PRIME) == expected

    def test_empty_input(self):
        assert multiexp([], SMALL_PRIME) == 1
        assert multiexp([], 1) == 0  # 1 % 1

    def test_zero_exponents_are_skipped(self):
        assert multiexp([(3, 0), (5, 0)], SMALL_PRIME) == 1
        assert multiexp([(3, 0), (5, 2)], SMALL_PRIME) == 25

    def test_single_pair(self):
        assert multiexp([(G, Q - 1)], P) == pow(G, Q - 1, P)

    def test_large_group_batch(self):
        pairs = [(pow(G, i + 2, P), (1 << 127) + i) for i in range(8)]
        expected = 1
        for base, exponent in pairs:
            expected = expected * pow(base, exponent, P) % P
        assert multiexp(pairs, P) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=SMALL_PRIME - 1),
                st.integers(min_value=0, max_value=(1 << 64) - 1),
            ),
            min_size=0,
            max_size=6,
        )
    )
    def test_property_agrees_with_pow(self, pairs):
        expected = 1
        for base, exponent in pairs:
            expected = expected * pow(base, exponent, SMALL_PRIME) % SMALL_PRIME
        assert multiexp(pairs, SMALL_PRIME) == expected
