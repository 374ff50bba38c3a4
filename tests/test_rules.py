"""The validation-rule core (:mod:`repro.peer.rules`) and its state views.

* **View agreement** — a peer's :class:`~repro.ledger.ledger.PeerLedger`
  (memory and WAL backends) and the reorder shadow answer every
  :class:`~repro.peer.rules.StateView` question identically after the
  same committed block sequence.
* **Oracle independence** — the simulation oracle shares no code with
  the rules it checks.
* **Flag agreement** — the peer validator, the reorder shadow's
  prediction and the oracle give equal flags on random mixed batches,
  with each defense feature off and on.
"""

from __future__ import annotations

import ast
import dataclasses
import random
from pathlib import Path

import pytest

from repro.chaincode.contracts import AssetContract, PrivateAssetContract
from repro.chaincode.contracts.malicious import ForgedReadContract
from repro.chaincode.rwset import (
    HashedCollectionRWSet,
    KVMetadataWrite,
    KVWrite,
    KVWriteHash,
    NamespaceRWSet,
    TxReadWriteSet,
)
from repro.common.env import RunConfig
from repro.common.errors import EndorsementError
from repro.core.defense.features import FrameworkFeatures
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.ledger.block import Block
from repro.ledger.ledger import PeerLedger
from repro.network.channel import ChannelConfig
from repro.network.collection import CollectionConfig
from repro.network.network import FabricNetwork
from repro.orderer.reorder import ReorderPipeline
from repro.peer.committer import Committer
from repro.protocol.proposal import reset_nonce_counter
from repro.protocol.response import ChaincodeResponse, ProposalResponsePayload
from repro.protocol.transaction import TransactionEnvelope, ValidationCode
from repro.simulation.invariants import ReferenceValidator
from repro.storage import MemoryBackend, WalBackend

VALIDATION_PARAMETER = "VALIDATION_PARAMETER"
KEYS = ("a", "b", "m", "z", "ā", "z中", "ключ", "中文")
KEY_POLICY = "AND('Org1MSP.member', 'Org2MSP.member')"


# ---------------------------------------------------------------------------
# View agreement
# ---------------------------------------------------------------------------

def _pdc_channel() -> ChannelConfig:
    orgs = [Organization(f"Org{i}MSP") for i in (1, 2, 3)]
    channel = ChannelConfig(channel_id="viewchan", organizations=orgs)
    channel.deploy_chaincode(
        "cc",
        collections=[CollectionConfig(
            name="PDC1", policy="OR('Org1MSP.member', 'Org2MSP.member')",
            required_peer_count=0,
        )],
    )
    return channel


def _envelope(tx_id: str, creator, namespace: NamespaceRWSet) -> TransactionEnvelope:
    payload = ProposalResponsePayload(
        proposal_hash=b"\x00" * 32,
        results=TxReadWriteSet(namespaces=(namespace,)),
        response=ChaincodeResponse(),
    )
    return TransactionEnvelope(
        tx_id=tx_id, channel_id="viewchan", chaincode_id="cc", creator=creator,
        payload=payload, endorsements=(), signature=b"",
    )


def _key_hash(key: str) -> bytes:
    return ("h:" + key).encode("utf-8")


def _view_blocks(creator, seed: int) -> list:
    """A seeded block sequence with its (arbitrary) committed flags.

    The first two blocks pin the cases every seed must cover: a key-level
    policy write, then a delete of the same key that clears it.
    """
    rng = random.Random(seed)
    fixed = [
        [NamespaceRWSet(
            namespace="cc",
            writes=(KVWrite("ā", b"1"), KVWrite("z中", b"2")),
            metadata_writes=(KVMetadataWrite("ā", VALIDATION_PARAMETER, KEY_POLICY.encode()),),
            collections=(HashedCollectionRWSet(
                "PDC1", hashed_writes=(KVWriteHash(_key_hash("p"), b"v"),)
            ),),
        )],
        [NamespaceRWSet(
            namespace="cc",
            writes=(KVWrite("ā", None, is_delete=True),),
            collections=(HashedCollectionRWSet(
                "PDC1", hashed_writes=(KVWriteHash(_key_hash("p"), None, is_delete=True),)
            ),),
        )],
    ]
    blocks = []
    tx_count = 0
    for number in range(12):
        transactions, flags = [], []
        rwsets = fixed[number] if number < len(fixed) else [
            _random_rwset(rng) for _ in range(rng.randint(1, 4))
        ]
        for rwset in rwsets:
            transactions.append(_envelope(f"view-{tx_count}", creator, rwset))
            tx_count += 1
            valid = number < len(fixed) or rng.random() < 0.8
            flags.append(ValidationCode.VALID if valid else ValidationCode.MVCC_READ_CONFLICT)
        blocks.append((tuple(transactions), flags))
    return blocks


def _random_rwset(rng: random.Random) -> NamespaceRWSet:
    writes = tuple(
        KVWrite(key, None, is_delete=True) if rng.random() < 0.3
        else KVWrite(key, f"v{rng.random()}".encode())
        for key in rng.sample(KEYS, rng.randint(0, 3))
    )
    metadata = tuple(
        KVMetadataWrite(key, VALIDATION_PARAMETER, KEY_POLICY.encode())
        for key in rng.sample(KEYS, rng.randint(0, 1))
    )
    hashed = tuple(
        KVWriteHash(_key_hash(key), None, is_delete=True) if rng.random() < 0.3
        else KVWriteHash(_key_hash(key), b"value-hash")
        for key in rng.sample(KEYS, rng.randint(0, 2))
    )
    return NamespaceRWSet(
        namespace="cc",
        writes=writes,
        metadata_writes=metadata,
        collections=(HashedCollectionRWSet("PDC1", hashed_writes=hashed),) if hashed else (),
    )


RANGES = (("", ""), ("a", "n"), ("m", ""), ("z", "ключ"), ("ā", ""), ("b", "z中"), ("中", ""))


class TestViewAgreement:
    @pytest.fixture(params=["memory", "wal"])
    def ledger(self, request, tmp_path):
        if request.param == "memory":
            return PeerLedger(MemoryBackend())
        return PeerLedger(WalBackend(tmp_path / "engine"))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ledger_and_shadow_answer_alike(self, ledger, seed):
        channel = _pdc_channel()
        creator = channel.organization("Org1MSP").enroll_client().certificate
        committer = Committer(channel, "Org3MSP")
        shadow = ReorderPipeline(channel, FrameworkFeatures())
        tx_ids = []
        for transactions, flags in _view_blocks(creator, seed):
            block = Block.create(
                ledger.height, ledger.blockchain.last_hash(), transactions
            )
            committer.commit_block(block, flags, ledger)
            shadow._apply_sequence(list(transactions), flags, block.header.number)
            tx_ids.extend(tx.tx_id for tx in transactions)
            if block.header.number < 2:
                # Block 0 sets the key-level policy, block 1's delete clears it.
                policy = KEY_POLICY.encode() if block.header.number == 0 else None
                assert ledger.validation_parameter("cc", "ā") == policy
                assert shadow.validation_parameter("cc", "ā") == policy

        for tx_id in tx_ids + ["never-seen"]:
            assert ledger.has_transaction(tx_id) == shadow.has_transaction(tx_id)
        for key in KEYS:
            assert ledger.version("cc", key) == shadow.version("cc", key), key
            assert (
                ledger.validation_parameter("cc", key)
                == shadow.validation_parameter("cc", key)
            ), key
            assert (
                ledger.private_version("cc", "PDC1", _key_hash(key))
                == shadow.private_version("cc", "PDC1", _key_hash(key))
            ), key
        live = [key for key in KEYS if ledger.version("cc", key) is not None]
        for start, end in RANGES:
            got = ledger.range_versions("cc", start, end)
            assert got == shadow.range_versions("cc", start, end), (start, end)
        assert [k for k, _ in ledger.range_versions("cc", "", "")] == sorted(live)


# ---------------------------------------------------------------------------
# Oracle independence
# ---------------------------------------------------------------------------

def test_reference_validator_imports_nothing_from_rules():
    import repro.simulation.invariants as invariants

    tree = ast.parse(Path(invariants.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.append(node.module)
            imported.extend(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported, "the AST walk found no imports at all"
    assert not [name for name in imported if name.startswith("repro.peer.rules")]


# ---------------------------------------------------------------------------
# Flag agreement: validator vs reorder shadow vs oracle
# ---------------------------------------------------------------------------

def _agreement_network(features: FrameworkFeatures) -> FabricNetwork:
    """Org1/Org2 hold PDC1 (collection policy AND of both); Org3 is a
    non-member running the forged-read contract (Use Case 2)."""
    reset_nonce_counter()
    reset_ca_instance_counter()
    orgs = [Organization(f"Org{i}MSP") for i in (1, 2, 3)]
    channel = ChannelConfig(channel_id="agreechan", organizations=orgs)
    any_org = "OR('Org1MSP.member', 'Org2MSP.member', 'Org3MSP.member')"
    channel.deploy_chaincode("assetcc", endorsement_policy=any_org)
    channel.deploy_chaincode(
        "pdccc",
        endorsement_policy=any_org,
        collections=[CollectionConfig(
            name="PDC1", policy="OR('Org1MSP.member', 'Org2MSP.member')",
            required_peer_count=0, endorsement_policy=KEY_POLICY,
        )],
    )
    net = FabricNetwork(
        channel=channel, features=features, batch_size=50,
        run=RunConfig.from_env(reorder=False),
    )
    for org in orgs:
        net.add_peer(org.msp_id)
    net.install_chaincode("assetcc", AssetContract())
    members = net.peers_of("Org1MSP") + net.peers_of("Org2MSP")
    net.install_chaincode("pdccc", PrivateAssetContract(), peers=members)
    net.install_chaincode("pdccc", ForgedReadContract(b"1"), peers=net.peers_of("Org3MSP"))
    return net


def _random_op(rng: random.Random):
    """``(chaincode, function, args, transient, endorsing orgs)``."""
    asset = rng.choice(KEYS)
    one_or_two = rng.choice([["Org1MSP"], ["Org3MSP"], ["Org1MSP", "Org2MSP"]])
    kind = rng.choice([
        "create", "create", "update", "add", "add", "delete", "policy", "list", "list",
        "pset", "pset", "padd", "pget", "pget", "pdel",
    ])
    if kind == "create":
        return "assetcc", "create_asset", [asset, "10"], None, one_or_two
    if kind == "update":
        return "assetcc", "update_asset", [asset, "7"], None, one_or_two
    if kind == "add":
        return "assetcc", "add_to_asset", [asset, "1"], None, one_or_two
    if kind == "delete":
        return "assetcc", "delete_asset", [asset], None, one_or_two
    if kind == "policy":
        return "assetcc", "set_asset_policy", [asset, KEY_POLICY], None, one_or_two
    if kind == "list":
        return "assetcc", "list_assets", [], None, one_or_two
    members = rng.choice([["Org1MSP"], ["Org1MSP", "Org2MSP"]])
    if kind == "pset":
        return "pdccc", "set_private", ["PDC1", asset], {"value": b"5"}, members
    if kind == "padd":
        return "pdccc", "add_private", ["PDC1", asset, "2"], None, members
    if kind == "pdel":
        return "pdccc", "del_private", ["PDC1", asset], None, members
    readers = rng.choice([["Org1MSP"], ["Org1MSP", "Org2MSP"], ["Org3MSP"]])
    return "pdccc", "get_private", ["PDC1", asset], None, readers


def _endorse(net: FabricNetwork, client, rng: random.Random):
    chaincode, function, args, transient, orgs = _random_op(rng)
    proposal = client._proposal(chaincode, function, args, transient=transient)
    try:
        responses = [
            net.request_endorsement(net.peers_of(org)[0], proposal).response
            for org in orgs
        ]
    except EndorsementError:
        return None
    return client.assemble(proposal, responses)


@pytest.mark.parametrize("filter_nonmember", [False, True])
@pytest.mark.parametrize("policy_on_reads", [False, True])
def test_validator_shadow_and_oracle_agree(filter_nonmember, policy_on_reads):
    features = FrameworkFeatures(
        collection_policy_on_reads=policy_on_reads,
        filter_nonmember_endorsements=filter_nonmember,
    )
    net = _agreement_network(features)
    client = net.client("Org1MSP")
    shadow = ReorderPipeline(net.channel, features)
    oracle = ReferenceValidator(net.channel, features)
    peer = net.peers_of("Org2MSP")[0]
    rng = random.Random(2024)
    backlog: list = []
    seen_flags: set = set()
    for round_number in range(12):
        fresh = [env for env in (_endorse(net, client, rng) for _ in range(8)) if env]
        # Older envelopes come back stale (MVCC/phantom) or, once
        # committed, as duplicates; a forged creator signature rides
        # along every third round.
        batch = fresh + rng.sample(backlog, min(len(backlog), 2))
        if fresh and round_number % 3 == 0:
            batch.append(dataclasses.replace(
                fresh[0], tx_id=fresh[0].tx_id + "-forged",
                signature=fresh[0].signature[::-1],
            ))
        rng.shuffle(batch)
        backlog.extend(fresh)
        block = Block.create(peer.ledger.height, peer.ledger.blockchain.last_hash(), tuple(batch))

        predicted = shadow._rules.block_flags(block.transactions, shadow)
        expected = oracle.peek_flags(block.transactions)
        committed = None
        for node in net.peers():
            validated = node.deliver_block(block)
            committed = committed or validated.flags
            assert validated.flags == committed
        assert predicted == committed
        assert expected == committed
        shadow._apply_sequence(list(block.transactions), committed, block.header.number)
        oracle.expected_flags(block)
        seen_flags.update(committed)

    assert {
        ValidationCode.VALID,
        ValidationCode.ENDORSEMENT_POLICY_FAILURE,
        ValidationCode.MVCC_READ_CONFLICT,
        ValidationCode.PHANTOM_READ_CONFLICT,
        ValidationCode.DUPLICATE_TXID,
        ValidationCode.BAD_CREATOR_SIGNATURE,
    } <= seen_flags
