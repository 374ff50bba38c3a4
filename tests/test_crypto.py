"""Unit and property tests for the Schnorr signature scheme."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import crypto
from repro.common.crypto import (
    G,
    P,
    Q,
    PrivateKey,
    PublicKey,
    generate_keypair,
    verify_batch,
)
from repro.common.tracing import PERF


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(b"test-seed")


class TestKeyGeneration:
    def test_deterministic_from_seed(self):
        private1, public1 = generate_keypair(b"alpha")
        private2, public2 = generate_keypair(b"alpha")
        assert private1.x == private2.x
        assert public1.y == public2.y

    def test_different_seeds_different_keys(self):
        _, public1 = generate_keypair(b"alpha")
        _, public2 = generate_keypair(b"beta")
        assert public1.y != public2.y

    def test_public_key_is_group_element(self, keypair):
        _, public = keypair
        assert 1 < public.y < P
        # y lies in the order-q subgroup generated by g=4.
        assert pow(public.y, Q, P) == 1

    def test_private_key_in_range(self, keypair):
        private, _ = keypair
        assert 1 <= private.x < Q

    def test_generator_has_order_q(self):
        assert pow(G, Q, P) == 1
        assert pow(G, 1, P) != 1


class TestSignVerify:
    def test_roundtrip(self, keypair):
        private, public = keypair
        signature = private.sign(b"hello world")
        assert public.verify(b"hello world", signature)

    def test_wrong_message_rejected(self, keypair):
        private, public = keypair
        signature = private.sign(b"hello world")
        assert not public.verify(b"hello worlD", signature)

    def test_wrong_key_rejected(self, keypair):
        private, _ = keypair
        _, other_public = generate_keypair(b"someone-else")
        signature = private.sign(b"msg")
        assert not other_public.verify(b"msg", signature)

    def test_signature_deterministic(self, keypair):
        private, _ = keypair
        assert private.sign(b"msg") == private.sign(b"msg")

    def test_different_messages_different_signatures(self, keypair):
        private, _ = keypair
        assert private.sign(b"a") != private.sign(b"b")

    def test_empty_message(self, keypair):
        private, public = keypair
        assert public.verify(b"", private.sign(b""))

    def test_large_message(self, keypair):
        private, public = keypair
        message = b"x" * 100_000
        assert public.verify(message, private.sign(message))

    def test_tampered_signature_rejected(self, keypair):
        private, public = keypair
        signature = bytearray(private.sign(b"msg"))
        signature[0] ^= 0xFF
        assert not public.verify(b"msg", bytes(signature))

    def test_truncated_signature_rejected(self, keypair):
        private, public = keypair
        signature = private.sign(b"msg")
        assert not public.verify(b"msg", signature[:-1])

    def test_empty_signature_rejected(self, keypair):
        _, public = keypair
        assert not public.verify(b"msg", b"")

    def test_all_zero_signature_rejected(self, keypair):
        private, public = keypair
        width = len(private.sign(b"msg"))
        assert not public.verify(b"msg", b"\x00" * width)


class TestPublicKeySerialization:
    def test_roundtrip(self, keypair):
        _, public = keypair
        assert PublicKey.from_bytes(public.to_bytes()).y == public.y

    def test_fixed_width(self, keypair):
        _, public = keypair
        assert len(public.to_bytes()) == (P.bit_length() + 7) // 8


def _batch_items(count: int, tag: bytes = b""):
    """``count`` distinct (public_key, message, signature) triples."""
    items = []
    for i in range(count):
        private, public = generate_keypair(tag + f"signer-{i}".encode())
        message = tag + f"message-{i}".encode()
        items.append((public, message, private.sign(message)))
    return items


def _negated_commitment_signature(private: PrivateKey, message: bytes, k: int) -> bytes:
    """A key holder's forgery with commitment ``r' = -g**k``.

    The signature satisfies ``g**s == -r' * y**e`` — off by exactly the
    order-2 element ``-1`` — so it fails individual verification, but its
    order-2 component cancels pairwise inside any linear combination
    whose two coefficients share parity.  The subgroup pre-check must
    reject it before it ever reaches a batch equation.
    """
    public = private.public_key()
    r = P - pow(G, k, P)
    e = crypto._hash_to_int(crypto._int_bytes(r), public.to_bytes(), message) % Q
    return _signature_bytes((k + private.x * e) % Q, r)


def _signature_bytes(s: int, r: int) -> bytes:
    width = (P.bit_length() + 7) // 8
    return s.to_bytes(width, "big") + r.to_bytes(width, "big")


def _schnorr_sign(x: int, y: int, message: bytes, k: int) -> tuple[bytes, int]:
    """Schnorr over ``(x, y)`` with an explicit nonce; returns (signature, e).

    With ``y = g**x`` and any nonce ``k`` the signature is valid; with a
    ``y`` outside the order-q subgroup it verifies only when the
    challenge ``e`` makes the order-2 part vanish.
    """
    r = pow(G, k, P)
    y_bytes = y.to_bytes((P.bit_length() + 7) // 8, "big")
    e = crypto._hash_to_int(crypto._int_bytes(r), y_bytes, message) % Q
    return _signature_bytes((k + x * e) % Q, r), e


def _non_subgroup_key_corpus(count: int, tag: bytes):
    """``count`` signatures under the key ``y' = p - g**x``, odd ``e`` only.

    Each one is an honest Schnorr signature for ``x`` but names ``y'``,
    so ``y'**e = -g**(x*e)`` and every one fails :meth:`PublicKey.verify`.
    """
    private, _ = generate_keypair(tag + b"non-subgroup-key")
    bad_key = PublicKey(P - pow(G, private.x, P))
    items = []
    n = 0
    while len(items) < count:
        message = tag + f"odd-{n}".encode()
        signature, e = _schnorr_sign(private.x, bad_key.y, message, k=1000 + n)
        n += 1
        if e % 2:
            items.append((bad_key, message, signature))
    return items


class TestBatchVerification:
    def setup_method(self):
        crypto.clear_caches()

    def test_all_valid_batch(self):
        items = _batch_items(16)
        assert verify_batch(items) == [True] * 16

    def test_all_valid_batch_settles_without_bisection(self):
        items = _batch_items(12, tag=b"nb-")
        PERF.reset()
        verify_batch(items)
        assert PERF.batch_bisections == 0
        assert PERF.verify_batched == 12

    def test_wrong_key_forgery_isolated_by_bisection(self):
        # A wrong-key forgery decodes cleanly and is in-range, so only
        # the batch equation (and then bisection) can reject it — this is
        # the path a tampered byte cannot reach (it fails range checks).
        items = _batch_items(16)
        forger, _ = generate_keypair(b"the-forger")
        victim_public = items[7][0]
        items[7] = (victim_public, b"forged claim", forger.sign(b"forged claim"))
        PERF.reset()
        results = verify_batch(items)
        assert results == [True] * 7 + [False] + [True] * 8
        assert PERF.batch_bisections > 0

    def test_multiple_forgeries_all_isolated(self):
        items = _batch_items(20, tag=b"multi-")
        forger, _ = generate_keypair(b"forger-2")
        for index in (0, 9, 19):
            public = items[index][0]
            items[index] = (public, b"fake", forger.sign(b"fake"))
        expected = [index not in (0, 9, 19) for index in range(20)]
        assert verify_batch(items) == expected

    def test_malformed_and_out_of_range_signatures(self):
        items = _batch_items(4, tag=b"mal-")
        public = items[0][0]
        width = (P.bit_length() + 7) // 8
        items[1] = (public, b"m", b"short")
        # s >= Q fails the range check before any batching.
        bad_s = Q.to_bytes(width, "big") + (1).to_bytes(width, "big")
        items[2] = (public, b"m", bad_s)
        assert verify_batch(items) == [True, False, False, True]

    def test_batch_agrees_with_individual_verify(self):
        # Seed-swept randomized corpus: valid, wrong-message, wrong-key
        # and cross-wired signatures must settle exactly as verify() does.
        for sweep in range(5):
            crypto.clear_caches()
            tag = f"sweep-{sweep}-".encode()
            items = _batch_items(10, tag=tag)
            forger, _ = generate_keypair(tag + b"forger")
            items[1] = (items[1][0], items[1][1], forger.sign(items[1][1]))
            items[4] = (items[4][0], b"swapped", items[4][2])
            items[8] = (items[8][0], items[8][1], items[3][2])
            batched = verify_batch(items, seed=tag)
            crypto.clear_caches()
            individual = [pk.verify(msg, sig) for pk, msg, sig in items]
            assert batched == individual

    def test_batch_populates_verify_cache(self):
        items = _batch_items(8, tag=b"cache-")
        verify_batch(items)
        PERF.reset()
        assert all(pk.verify(msg, sig) for pk, msg, sig in items)
        assert PERF.verify_cache_hits == 8
        assert PERF.verify_individual == 0

    def test_empty_and_singleton_batches(self):
        assert verify_batch([]) == []
        items = _batch_items(1, tag=b"single-")
        assert verify_batch(items) == [True]

    def test_negated_commitment_pair_rejected(self):
        # The order-2 escape: two r' = -g^k forgeries (from signers who
        # know their own keys) each fail individual verification, and a
        # batch containing both must also reject both — their order-2
        # components would cancel in the combined equation if commitments
        # outside the order-q subgroup were allowed in.
        private1, public1 = generate_keypair(b"neg-1")
        private2, public2 = generate_keypair(b"neg-2")
        forged1 = _negated_commitment_signature(private1, b"m1", k=111)
        forged2 = _negated_commitment_signature(private2, b"m2", k=222)
        assert not public1.verify(b"m1", forged1)
        assert not public2.verify(b"m2", forged2)
        crypto.clear_caches()
        assert verify_batch([(public1, b"m1", forged1), (public2, b"m2", forged2)]) == [
            False,
            False,
        ]
        # The batch results land in the shared verify cache — they must
        # not poison later individual verification.
        assert not public1.verify(b"m1", forged1)
        assert not public2.verify(b"m2", forged2)

    def test_negated_commitment_pair_hidden_among_valid(self):
        items = _batch_items(6, tag=b"neg-mix-")
        private1, public1 = generate_keypair(b"neg-3")
        private2, public2 = generate_keypair(b"neg-4")
        items.insert(2, (public1, b"mix-1", _negated_commitment_signature(private1, b"mix-1", k=7)))
        items.insert(5, (public2, b"mix-2", _negated_commitment_signature(private2, b"mix-2", k=8)))
        expected = [True, True, False, True, True, False, True, True]
        assert verify_batch(items) == expected
        crypto.clear_caches()
        assert [pk.verify(msg, sig) for pk, msg, sig in items] == expected

    def test_commitment_outside_subgroup_never_batched(self):
        # Non-residue commitments are rejected by the pre-check alone:
        # no batch equation (and no bisection) is ever attempted.
        private, public = generate_keypair(b"neg-5")
        forged = _negated_commitment_signature(private, b"solo", k=9)
        PERF.reset()
        assert verify_batch([(public, b"solo", forged)]) == [False]
        assert PERF.batch_calls == 0
        assert PERF.verify_individual == 0

    def test_non_subgroup_key_never_settled_by_batch(self):
        # A key with an order-2 part can sign messages with odd challenges
        # that fail individual verification, yet cancel in a combined
        # equation whenever their coefficient is even.  Each such
        # signature rides in a batch with two honest ones; the batch
        # must reject every one, and must not cache a wrong verdict.
        honest = _batch_items(2, tag=b"nsk-honest-")
        corpus = _non_subgroup_key_corpus(19, tag=b"nsk-")
        assert not any(pk.verify(msg, sig) for pk, msg, sig in corpus)
        for n, item in enumerate(corpus):
            crypto.clear_caches()
            batch = [honest[0], item, honest[1]]
            assert verify_batch(batch, seed=f"nsk-{n}".encode()) == [True, False, True]
            public, message, signature = item
            assert not public.verify(message, signature)

    def test_non_subgroup_key_with_even_challenge_matches_verify(self):
        # An even challenge makes the order-2 part vanish, so the exact
        # equation accepts; the batch must agree (via the individual path).
        private, _ = generate_keypair(b"nsk-even")
        bad_key = PublicKey(P - pow(G, private.x, P))
        n = 0
        while True:
            message = f"even-{n}".encode()
            signature, e = _schnorr_sign(private.x, bad_key.y, message, k=5000 + n)
            n += 1
            if e % 2 == 0:
                break
        assert bad_key.verify(message, signature)
        crypto.clear_caches()
        PERF.reset()
        items = _batch_items(2, tag=b"nsk-e-") + [(bad_key, message, signature)]
        assert verify_batch(items) == [True, True, True]
        assert PERF.verify_individual == 1

    def test_batch_agrees_with_verify_on_edge_corpus(self):
        # Seed-swept corpora mixing repeated keys, valid and forged
        # signatures with s >= 2**704 (past the generator table), commitments
        # outside the subgroup and keys outside it.
        for sweep in range(4):
            tag = f"edge-{sweep}-".encode()
            rng = random.Random(sweep)
            keys = [generate_keypair(tag + f"k{j}".encode()) for j in range(3)]
            items = []
            for n in range(9):
                private, public = keys[n % 3]
                message = tag + f"m{n}".encode()
                items.append((public, message, private.sign(message)))
            private, public = keys[0]
            big_k = (1 << 1400) + rng.randrange(1 << 1300)
            big_s, _ = _schnorr_sign(private.x, public.y, tag + b"big-s", k=big_k)
            assert int.from_bytes(big_s[: len(big_s) // 2], "big") >= 1 << 704
            items.append((public, tag + b"big-s", big_s))
            forged_s = _signature_bytes(Q - 1 - rng.randrange(1 << 64), pow(G, 77, P))
            items.append((keys[1][1], tag + b"forged-big-s", forged_s))
            items.append((keys[2][1], tag + b"neg-r", _negated_commitment_signature(
                keys[2][0], tag + b"neg-r", k=31 + sweep)))
            items.extend(_non_subgroup_key_corpus(2, tag=tag))
            rng.shuffle(items)
            crypto.clear_caches()
            batched = verify_batch(items, seed=tag)
            crypto.clear_caches()
            individual = [pk.verify(msg, sig) for pk, msg, sig in items]
            assert batched == individual
            assert individual.count(False) == 4

    def test_batch_results_independent_of_seed(self):
        items = _batch_items(6, tag=b"seed-")
        items[2] = (items[2][0], b"not the message", items[2][2])
        for seed in (b"", b"a", b"block-7"):
            crypto.clear_caches()
            assert verify_batch(items, seed=seed) == [True, True, False, True, True, True]


class TestJacobi:
    @staticmethod
    def _euler(a: int) -> int:
        """Legendre symbol (a/p) by Euler's criterion: a**q mod p."""
        value = pow(a, Q, P)
        return -1 if value == P - 1 else value

    def test_matches_euler_on_random_values(self):
        rng = random.Random(12)
        for _ in range(60):
            a = rng.randrange(P)
            assert crypto._jacobi(a, P) == self._euler(a)

    def test_matches_euler_on_edge_values(self):
        rng = random.Random(13)
        values = [0, 1, 2, P - 1, P - 2, P, P + 1, 2 * P]
        values += [1 << n for n in (1, 2, 3, 5, 64, 1000, 1535, 1536, 1600)]
        values += [rng.randrange(P) << rng.randrange(1, 40) for _ in range(20)]
        for a in values:
            assert crypto._jacobi(a, P) == self._euler(a % P), a

    def test_small_odd_moduli(self):
        # Exhaustive check against Euler's criterion on small primes.
        for prime in (3, 5, 7, 11, 13, 1009):
            for a in range(3 * prime):
                value = pow(a, (prime - 1) // 2, prime)
                assert crypto._jacobi(a, prime) == (-1 if value == prime - 1 else value)

    def test_key_gate_accepts_honest_keys_only(self):
        private, public = generate_keypair(b"gate")
        assert crypto._key_in_subgroup(public.y)
        assert not crypto._key_in_subgroup(P - public.y)
        assert not crypto._key_in_subgroup(0)


class TestExponentWidths:
    """Honest exponents stay inside the fixed-base tables.

    The tables cover only the widths the scheme produces; a change to key
    or nonce derivation that widened them would silently move every
    exponentiation onto the plain-``pow()`` fallback.
    """

    def test_honest_exponents_fit_the_tables(self):
        g_table = crypto._g_table()
        for n in range(12):
            private, public = generate_keypair(f"width-{n}".encode())
            message = f"message-{n}".encode()
            s, r = crypto._decode_signature(private.sign(message))
            e = crypto._hash_to_int(crypto._int_bytes(r), public.to_bytes(), message) % Q
            k = (s - private.x * e) % Q
            assert pow(G, k, P) == r
            assert private.x < 1 << crypto.HASH_BITS
            assert k < 1 << crypto.HASH_BITS
            assert e < 1 << crypto.HASH_BITS
            assert s < 1 << (2 * crypto.HASH_BITS + 1)
            assert g_table.covers(s)

    def test_table_widths_cover_batch_sums(self):
        coeff = 1 << crypto.BATCH_COEFF_BITS
        batch = 1 << 16
        assert (coeff * batch) << (2 * crypto.HASH_BITS + 1) <= 1 << crypto.G_TABLE_BITS
        assert (coeff * batch) << crypto.HASH_BITS <= 1 << crypto.KEY_TABLE_BITS

    def test_warm_honest_batch_needs_no_plain_pow(self):
        # Once the key's table is warm, an honest batch's g**sum(c*s) and
        # y**sum(c*e) are both answered by the tables.
        private, public = generate_keypair(b"warm-signer")
        uses = crypto._KEY_TABLES.build_after
        items = [(public, b"m%d" % n, private.sign(b"m%d" % n)) for n in range(2 * uses)]
        crypto.clear_caches()
        assert all(pk.verify(msg, sig) for pk, msg, sig in items[:uses])
        assert crypto._KEY_TABLES.has_table(public.y)
        PERF.reset()
        assert verify_batch(items[uses:]) == [True] * uses
        assert (PERF.modexp_windowed, PERF.modexp_full) == (2, 0)


class TestFastPathToggles:
    def setup_method(self):
        crypto.clear_caches()

    def test_naive_and_fast_paths_agree(self):
        private, public = generate_keypair(b"toggle")
        signature = private.sign(b"msg")
        saved = crypto.fast_path_enabled()
        try:
            crypto.set_fast_path(False)
            crypto.set_verify_cache(False)
            naive = public.verify(b"msg", signature)
            crypto.set_fast_path(True)
            fast = public.verify(b"msg", signature)
        finally:
            crypto.set_fast_path(saved)
            crypto.set_verify_cache(True)
        assert naive is fast is True

    def test_verify_cache_is_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(crypto, "_VERIFY_CACHE_MAX", 4)
        private, public = generate_keypair(b"lru")
        signatures = [(f"m{i}".encode(), private.sign(f"m{i}".encode())) for i in range(6)]
        crypto.clear_caches()
        for message, signature in signatures:
            public.verify(message, signature)
        assert len(crypto._VERIFY_CACHE) == 4
        # The oldest entries were evicted, the newest retained.
        PERF.reset()
        public.verify(*signatures[-1])
        assert PERF.verify_cache_hits == 1

    def test_cache_keys_hold_digest_not_payload(self):
        # The cache must never pin message payloads alive: keys carry the
        # 32-byte SHA-256 digest, not the (possibly multi-KB) message.
        import hashlib

        private, public = generate_keypair(b"digest-key")
        message = b"x" * 10_000
        signature = private.sign(message)
        crypto.clear_caches()
        public.verify(message, signature)
        verify_batch([(public, message, signature)])
        assert len(crypto._VERIFY_CACHE) == 1
        (key,) = crypto._VERIFY_CACHE
        assert message not in key
        assert hashlib.sha256(message).digest() in key

    def test_cache_hit_skips_verification_work(self):
        private, public = generate_keypair(b"hot")
        signature = private.sign(b"msg")
        public.verify(b"msg", signature)
        PERF.reset()
        assert public.verify(b"msg", signature)
        assert PERF.verify_individual == 0
        assert PERF.modexps == 0


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.binary(min_size=0, max_size=64), message=st.binary(max_size=256))
    def test_any_keypair_signs_any_message(self, seed, message):
        private, public = generate_keypair(seed)
        assert public.verify(message, private.sign(message))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.binary(min_size=1, max_size=32),
        message=st.binary(max_size=128),
        flip=st.integers(min_value=0, max_value=7),
    )
    def test_bitflip_in_message_rejected(self, seed, message, flip):
        private, public = generate_keypair(seed)
        signature = private.sign(message + b"!")
        tampered = bytearray(message + b"!")
        tampered[-1] ^= 1 << flip
        assert not public.verify(bytes(tampered), signature)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.binary(max_size=32))
    def test_from_seed_yields_valid_exponent(self, seed):
        private = PrivateKey.from_seed(seed)
        assert 1 <= private.x < Q
