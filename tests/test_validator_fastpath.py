"""The block-validation fast path: batching, memoization, escape hatches.

Covers the three layers of the fast path at the validator level:

* serialized-bytes memoization on frozen protocol objects;
* the batched signature pre-pass (equivalence with the unbatched path,
  including blocks hiding a forged endorsement);
* the shared VSCC memo (2nd..Nth peer reuses flags; ``REPRO_SHARED_VSCC=0``
  disables it; the simulation invariant checker confirms the memo never
  changes a validation flag).
"""

from __future__ import annotations

import pytest

from repro.chaincode.contracts import PrivateAssetContract
from repro.common import crypto
from repro.common.tracing import PERF
from repro.identity.ca import reset_ca_instance_counter
from repro.network.presets import three_org_network
from repro.peer.validator import batch_verify_enabled, shared_vscc_enabled
from repro.protocol.proposal import reset_nonce_counter
from repro.protocol.transaction import ValidationCode
from repro.simulation.harness import run_seed
from repro.simulation.invariants import check_vscc_memo_agreement


@pytest.fixture(autouse=True)
def _fresh_crypto_state():
    crypto.clear_caches()
    yield
    crypto.clear_caches()


def _network():
    reset_ca_instance_counter()
    reset_nonce_counter()
    net = three_org_network()
    net.network.install_chaincode(net.chaincode_id, PrivateAssetContract())
    return net


def _submit(net, key: str, value: bytes = b"v"):
    return net.client_of(1).submit_transaction(
        net.chaincode_id,
        "set_private",
        [net.collection, key],
        transient={"value": value},
        endorsing_peers=[net.peer_of(1), net.peer_of(2)],
    )


class TestSerializedBytesMemoization:
    def test_payload_bytes_computed_once(self):
        net = _network()
        _submit(net, "memo-key")
        validated = next(iter(net.peer_of(1).ledger.blockchain.blocks()))
        tx = validated.block.transactions[0]
        assert tx.payload.bytes() is tx.payload.bytes()
        assert tx.signed_bytes() is tx.signed_bytes()


class TestEnvToggles:
    def test_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARED_VSCC", raising=False)
        monkeypatch.delenv("REPRO_BATCH_VERIFY", raising=False)
        assert shared_vscc_enabled()
        assert batch_verify_enabled()

    def test_escape_hatches(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARED_VSCC", "0")
        monkeypatch.setenv("REPRO_BATCH_VERIFY", "0")
        assert not shared_vscc_enabled()
        assert not batch_verify_enabled()


class TestSharedVsccMemo:
    def test_second_peer_hits_the_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARED_VSCC", "1")
        net = _network()
        PERF.reset()
        result = _submit(net, "hit-key")
        assert result.committed
        # One block delivered to three peers: the first validator misses
        # and populates, the other two hit.
        assert PERF.vscc_memo_misses == 1
        assert PERF.vscc_memo_hits == 2

    def test_flags_identical_with_memo_disabled(self, monkeypatch):
        flags_by_mode = {}
        for mode in ("1", "0"):
            monkeypatch.setenv("REPRO_SHARED_VSCC", mode)
            crypto.clear_caches()
            net = _network()
            for i in range(4):
                _submit(net, f"eq-{i}")
            flags_by_mode[mode] = [
                tuple(v.flags)
                for v in net.peer_of(1).ledger.blockchain.blocks()
            ]
        assert flags_by_mode["1"] == flags_by_mode["0"]
        assert all(
            flag is ValidationCode.VALID
            for flags in flags_by_mode["1"]
            for flag in flags
        )

    def test_memo_scoped_per_network(self, monkeypatch):
        # Two identical networks produce byte-identical blocks; the memo
        # must not leak flags across them (it is keyed on the channel
        # *instance*, not on the block bytes alone).
        monkeypatch.setenv("REPRO_SHARED_VSCC", "1")
        first = _network()
        _submit(first, "scope-key")
        PERF.reset()
        second = _network()
        _submit(second, "scope-key")
        assert PERF.vscc_memo_misses >= 1

    def test_memo_never_changes_flags_small_sim(self):
        report = run_seed(7, 12)
        assert not [v for v in report.violations if v.invariant == "vscc-memo"], (
            "shared VSCC memo changed a validation flag"
        )

    def test_memo_agreement_checker_runs_clean(self):
        # Drive the checker directly against a completed healthy run so a
        # regression in the memo (not just in the workload) is caught.
        report = run_seed(11, 10)
        assert report.ok, report.summary()

    def test_memo_agreement_checker_performs_real_verifications(self):
        # The checker's replay must not be answered by the batch/cache
        # entries it is supposed to independently confirm: every
        # signature check runs individually, and the process-wide cache
        # toggle is restored afterwards.
        class _Sim:
            def __init__(self, net):
                self.network = net.network
                self._net = net

            def all_peers(self):
                return [self._net.peer_of(i) for i in (1, 2, 3)]

        net = _network()
        _submit(net, "real-verify-key")
        # Warm one endorser's window table: the replay clears verdicts,
        # not precomputation, so the table must survive it.
        endorser_y = net.peer_of(1).identity.certificate.public_key.y
        for exponent in range(crypto._KEY_TABLES.build_after):
            crypto._y_pow(endorser_y, exponent)
        assert crypto._KEY_TABLES.has_table(endorser_y)
        PERF.reset()
        assert check_vscc_memo_agreement(_Sim(net)) == []
        assert PERF.verify_individual > 0
        assert PERF.verify_cache_hits == 0
        assert PERF.batch_calls == 0
        assert crypto.verify_cache_enabled()
        assert crypto._KEY_TABLES.has_table(endorser_y)


class TestCertificateMemo:
    def test_late_msp_registration_not_cached_as_rejection(self):
        # Only positive results are memoized: a certificate presented
        # before its MSP is registered on the channel is rejected, but
        # must become valid once the CA registers — a permanent negative
        # memo would diverge from the uncached path.
        from repro.identity.ca import CertificateAuthority
        from repro.identity.roles import Role

        net = _network()
        validator = net.peer_of(1)._validator
        late_ca = CertificateAuthority("LateOrgMSP", seed=b"late-org")
        certificate = late_ca.enroll("late-peer", Role.PEER).certificate
        assert not validator._certificate_valid(certificate)
        net.network.channel.msp_registry.register(late_ca)
        assert validator._certificate_valid(certificate)
        # Now memoized positively: no registry call on the second probe.
        assert certificate in validator._cert_memo


class TestBatchedPrePass:
    def test_batched_and_unbatched_flags_agree(self, monkeypatch):
        flags_by_mode = {}
        for mode in ("1", "0"):
            monkeypatch.setenv("REPRO_BATCH_VERIFY", mode)
            monkeypatch.setenv("REPRO_SHARED_VSCC", "0")
            crypto.clear_caches()
            net = _network()
            for i in range(3):
                _submit(net, f"batch-{i}")
            flags_by_mode[mode] = [
                tuple(v.flags)
                for v in net.peer_of(1).ledger.blockchain.blocks()
            ]
        assert flags_by_mode["1"] == flags_by_mode["0"]

    def test_prewarm_settles_signatures_in_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARED_VSCC", "0")
        net = _network()
        PERF.reset()
        _submit(net, "warm-key")
        # With the pre-pass on, the per-transaction pipeline's verify()
        # calls are answered from the cache the batch populated.
        assert PERF.verify_batched > 0 or PERF.verify_cache_hits > 0

    def test_forged_endorsement_rejected_under_batching(self):
        # A wrong-key endorsement signature hidden among valid ones: the
        # batch equation fails, bisection isolates it, and the policy
        # check then sees too few valid signers — same as unbatched.
        from dataclasses import replace

        net = _network()
        _submit(net, "setup-key")
        validated = next(iter(net.peer_of(1).ledger.blockchain.blocks()))
        tx = validated.block.transactions[0]
        forger = crypto.PrivateKey.from_seed(b"endorsement-forger")
        forged = tuple(
            replace(e, signature=forger.sign(tx.payload.bytes()))
            for e in tx.endorsements
        )
        # The creator signature covers the endorsements, so the forged
        # envelope must be (legitimately) re-signed by a real client —
        # exactly what a malicious client colluding with a forger would do.
        client = net.client_of(1)
        unsigned = replace(
            tx,
            tx_id="forged-tx",
            creator=client.identity.certificate,
            endorsements=forged,
            signature=b"",
        )
        bad_tx = replace(unsigned, signature=client.identity.sign(unsigned.signed_bytes()))

        from repro.ledger.block import Block

        block = Block.create(
            number=net.peer_of(1).ledger.height,
            prev_hash=net.peer_of(1).ledger.blockchain.last_hash(),
            transactions=(bad_tx,),
        )
        crypto.clear_caches()
        PERF.reset()
        flags = net.peer_of(1)._validator.validate_block(
            block, net.peer_of(1).ledger
        )
        assert flags == [ValidationCode.ENDORSEMENT_POLICY_FAILURE]
