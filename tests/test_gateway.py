"""Tests for the client gateway: evaluate, submit, consistency checks."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chaincode.contracts import ForgedReadContract, PrivateAssetContract
from repro.common.errors import (
    EndorsementError,
    ProposalResponseMismatchError,
    TransactionInvalidError,
)
from repro.protocol.transaction import ValidationCode


class TestEvaluate:
    def test_evaluate_returns_payload(self, network):
        client = network.client("Org1MSP")
        p1, p2 = network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"42"}, endorsing_peers=[p1, p2],
        ).raise_for_status()
        assert client.evaluate_transaction("pdccc", "get_private", ["PDC1", "k"], peer=p1) == b"42"

    def test_evaluate_does_not_commit(self, network):
        client = network.client("Org1MSP")
        p1 = network.peers_of("Org1MSP")[0]
        client.evaluate_transaction(
            "pdccc", "set_private", ["PDC1", "ghost"], transient={"value": b"1"}, peer=p1
        )
        assert p1.query_private("pdccc", "PDC1", "ghost") is None
        assert p1.ledger.height == 0

    def test_evaluate_defaults_to_own_org_peer(self, network):
        client = network.client("Org2MSP")
        p1, p2 = network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"7"}, endorsing_peers=[p1, p2],
        ).raise_for_status()
        assert client.evaluate_transaction("pdccc", "get_private", ["PDC1", "k"]) == b"7"


class TestSubmit:
    def test_submit_result_fields(self, network):
        client = network.client("Org1MSP")
        result = client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"1"},
            endorsing_peers=[network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]],
        )
        assert result.committed
        assert result.envelope.function == "set_private"
        assert result.envelope.args == ("PDC1", "k")
        assert result.tx_id == result.envelope.tx_id

    def test_transient_never_in_envelope(self, network):
        """The secret travels in the transient map and must not appear
        anywhere in the signed/ordered envelope bytes."""
        client = network.client("Org1MSP")
        secret = b"super-secret-transient-value"
        result = client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": secret},
            endorsing_peers=[network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]],
        )
        assert secret not in result.envelope.signed_bytes()

    def test_default_endorsement_is_minimal_quorum(self, network, monkeypatch):
        """With no pinned endorsers the gateway plans a minimal quorum:
        MAJORITY of 3 orgs needs only 2 endorsements."""
        monkeypatch.setenv("REPRO_ENDORSE_PLAN", "1")
        client = network.client("Org1MSP")
        result = client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"], transient={"value": b"1"}
        )
        assert result.committed
        orgs = {e.endorser.msp_id for e in result.envelope.endorsements}
        assert len(orgs) == 2
        assert orgs <= {"Org1MSP", "Org2MSP", "Org3MSP"}

    def test_default_endorsers_one_per_org_without_plan(self, network, monkeypatch):
        """REPRO_ENDORSE_PLAN=0 restores the endorse-everywhere default."""
        monkeypatch.setenv("REPRO_ENDORSE_PLAN", "0")
        client = network.client("Org1MSP")
        result = client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"], transient={"value": b"1"}
        )
        assert result.committed
        orgs = {e.endorser.msp_id for e in result.envelope.endorsements}
        assert orgs == {"Org1MSP", "Org2MSP", "Org3MSP"}

    def test_no_endorsers_rejected(self, network):
        client = network.client("Org1MSP")
        with pytest.raises(EndorsementError):
            client.submit_transaction("pdccc", "get_private", ["PDC1", "k"], endorsing_peers=[])

    def test_raise_for_status(self, network):
        client = network.client("Org1MSP")
        result = client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"1"},
            endorsing_peers=[network.peers_of("Org1MSP")[0]],
        )
        assert result.status is ValidationCode.ENDORSEMENT_POLICY_FAILURE
        with pytest.raises(TransactionInvalidError):
            result.raise_for_status()

    def test_divergent_responses_rejected(self, network):
        """The execution-phase client check: endorsers must agree."""
        rogue = network.peers_of("Org3MSP")[0]
        rogue.install_chaincode("pdccc", ForgedReadContract(fake_value=b"999"))
        honest = network.peers_of("Org1MSP")[0]
        client = network.client("Org1MSP")
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"1"},
            endorsing_peers=[honest, network.peers_of("Org2MSP")[0]],
        ).raise_for_status()
        with pytest.raises(ProposalResponseMismatchError):
            client.submit_transaction(
                "pdccc", "get_private", ["PDC1", "k"], endorsing_peers=[honest, rogue]
            )

    def test_first_forged_endorsement_named_in_response_order(self, network):
        """The client verifies every endorsement and names the first bad one."""
        client = network.client("Org1MSP")
        peers = [network.peers_of(f"Org{i}MSP")[0] for i in (1, 2, 3)]
        proposal = client._proposal(
            "pdccc", "set_private", ["PDC1", "k"], {"value": b"1"}
        )
        responses = [
            network.request_endorsement(peer, proposal).response for peer in peers
        ]
        client._check_consistency(proposal, responses)
        forged = responses[0].endorsement.signature  # valid, but not theirs
        for index in (2, 1):
            responses[index] = replace(
                responses[index],
                endorsement=replace(responses[index].endorsement, signature=forged),
            )
        second = responses[1].endorsement.endorser.enrollment_id
        with pytest.raises(EndorsementError, match=f"from {second}$"):
            client._check_consistency(proposal, responses)

    def test_chaincode_error_surfaces(self, network):
        client = network.client("Org1MSP")
        with pytest.raises(EndorsementError, match="not found"):
            client.submit_transaction(
                "pdcccc" if False else "pdccc",
                "get_private",
                ["PDC1", "missing"],
                endorsing_peers=[network.peers_of("Org1MSP")[0]],
            )

    def test_payload_returned_to_client(self, network):
        client = network.client("Org1MSP")
        p1, p2 = network.peers_of("Org1MSP")[0], network.peers_of("Org2MSP")[0]
        client.submit_transaction(
            "pdccc", "set_private", ["PDC1", "k"],
            transient={"value": b"33"}, endorsing_peers=[p1, p2],
        ).raise_for_status()
        result = client.submit_transaction(
            "pdccc", "get_private", ["PDC1", "k"], endorsing_peers=[p1, p2]
        )
        assert result.payload == b"33"
