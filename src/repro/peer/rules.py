"""The validation rules: the one product copy of the PoP checks.

Every committing peer validates each transaction of a delivered block
through the two checks the paper names (Section II-B3):

1. **Endorsement policy check** — are there enough *valid* endorsement
   signatures from identities satisfying the applicable policy?
2. **Version conflict check (MVCC)** — do the versions recorded in the
   read set still match the committed state?  Range reads get the
   phantom variant: the range is re-scanned and must come back equal.

The peer's :class:`~repro.peer.validator.Validator` runs these rules over
its ledger, and the conflict-aware orderer
(:class:`~repro.orderer.reorder.ReorderPipeline`) runs the *same* rules
over its shadow of committed state to predict the peers' flags.  Both
read state only through the five-method :class:`StateView` protocol, so
a defense change lands here once.  The simulation oracle
(:class:`~repro.simulation.invariants.ReferenceValidator`) deliberately
keeps its own formulation and imports nothing from this module.

The module is pure: no environment reads and no I/O.  The policy
selection rules are where the paper's Use Case 2 lives, and they
reproduce Fabric's ``validator_keylevel.go`` behaviour:

* collection *writes* are validated against the collection-level policy
  when one is defined (otherwise the chaincode-level policy);
* **read-only transactions are always validated against the
  chaincode-level policy** — even when a collection-level policy exists —
  which is what lets forged PDC reads through;
* **New Feature 1** (``collection_policy_on_reads``) adds the
  collection-level policy check for collections *read* by a read-only
  transaction, closing that hole.

The supplemental defense (``filter_nonmember_endorsements``) filters
endorsements from PDC non-member orgs before evaluating any policy of a
PDC transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, Iterable, Optional, Protocol

from repro.identity.identity import Certificate
from repro.ledger.version import Version
from repro.protocol.transaction import TransactionEnvelope, ValidationCode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.defense.features import FrameworkFeatures
    from repro.network.channel import ChannelConfig


class StateView(Protocol):
    """Read-only committed state, as the validation rules consult it."""

    def has_transaction(self, tx_id: str) -> bool:
        """Whether ``tx_id`` is already on the chain (valid or not)."""

    def version(self, namespace: str, key: str) -> Optional[Version]:
        """The committed version of a live public key, else ``None``."""

    def private_version(
        self, namespace: str, collection: str, key_hash: bytes
    ) -> Optional[Version]:
        """The committed version of a live private key hash, else ``None``."""

    def validation_parameter(self, namespace: str, key: str) -> Optional[bytes]:
        """The committed key-level endorsement policy bytes, if any."""

    def range_versions(
        self, namespace: str, start: str, end: str
    ) -> list[tuple[str, Version]]:
        """Key-sorted live ``(key, version)`` pairs in ``[start, end)``
        (an empty ``end`` leaves the range open)."""


def in_range(key: str, start: str, end: str) -> bool:
    """Range-query membership: ``start <= key < end``, empty ``end`` = open."""
    return key >= start and (not end or key < end)


class BlockWrites:
    """Keys written by the VALID transactions validated so far in a block.

    Fabric MVCC within a block: a later transaction that read (or
    range-scanned over) one of these keys conflicts with the earlier
    writer, whatever the committed state says.
    """

    __slots__ = ("public", "private")

    def __init__(self) -> None:
        self.public: set[tuple[str, str]] = set()
        self.private: set[tuple[str, str, bytes]] = set()

    def add(self, tx: TransactionEnvelope) -> None:
        for ns in tx.payload.results.namespaces:
            for write in ns.writes:
                self.public.add((ns.namespace, write.key))
            for col in ns.collections:
                for hashed in col.hashed_writes:
                    self.private.add((ns.namespace, col.collection, hashed.key_hash))

    def covers_range(self, namespace: str, start: str, end: str) -> bool:
        """Did an earlier transaction insert, update or delete in the range?"""
        return any(
            ns == namespace and in_range(key, start, end) for ns, key in self.public
        )

    def overlaps(self, tx: TransactionEnvelope) -> bool:
        """Does ``tx`` read or range-scan a key written earlier in the block?"""
        for ns in tx.payload.results.namespaces:
            if any((ns.namespace, read.key) in self.public for read in ns.reads):
                return True
            for col in ns.collections:
                if any(
                    (ns.namespace, col.collection, hashed.key_hash) in self.private
                    for hashed in col.hashed_reads
                ):
                    return True
            if any(
                self.covers_range(ns.namespace, query.start_key, query.end_key)
                for query in ns.range_queries
            ):
                return True
        return False


def versions_fresh(
    tx: TransactionEnvelope, view: StateView, writes: BlockWrites
) -> bool:
    """The version conflict check of the PoP protocol.

    Note what this check does **not** do: it never re-executes the
    chaincode and never inspects the response payload — which is why a
    fabricated payload with a genuine ``(key, version)`` read set sails
    through (Section IV-A1).
    """
    for ns in tx.payload.results.namespaces:
        for read in ns.reads:
            if (ns.namespace, read.key) in writes.public:
                return False
            if view.version(ns.namespace, read.key) != read.version:
                return False
        for col in ns.collections:
            for hashed in col.hashed_reads:
                full = (ns.namespace, col.collection, hashed.key_hash)
                if full in writes.private:
                    return False
                if view.private_version(*full) != hashed.version:
                    return False
    return True


def range_fresh(view: StateView, namespace: str, query, writes: BlockWrites) -> bool:
    """Phantom check: re-scan a recorded range against current state.

    Any insertion, deletion or version change within the range since
    simulation — including by earlier transactions in this block — is a
    phantom read.
    """
    recorded = [(read.key, read.version) for read in query.reads]
    if view.range_versions(namespace, query.start_key, query.end_key) != recorded:
        return False
    return not writes.covers_range(namespace, query.start_key, query.end_key)


def conflict_flag(
    tx: TransactionEnvelope, view: StateView, writes: BlockWrites
) -> ValidationCode:
    """The MVCC + phantom verdict against ``view`` and in-block writes."""
    if not versions_fresh(tx, view, writes):
        return ValidationCode.MVCC_READ_CONFLICT
    for ns in tx.payload.results.namespaces:
        for query in ns.range_queries:
            if not range_fresh(view, ns.namespace, query, writes):
                return ValidationCode.PHANTOM_READ_CONFLICT
    return ValidationCode.VALID


class ValidationRules:
    """The per-channel validation rules (checks 1 and 2, in Fabric's order)."""

    _CERT_MEMO_MAX = 8192  # backstop; distinct valid certs per channel are few

    def __init__(self, channel: "ChannelConfig", features: "FrameworkFeatures") -> None:
        self._channel = channel
        self._features = features
        self._evaluator = channel.evaluator()
        # Certificate-validation memo: the MSP registry already caches CA
        # checks, but it keys by a 5-field tuple built per call; this memo
        # keys by the certificate object and so costs one set probe on the
        # (very) hot validation path.  Only *positive* results are
        # memoized: an MSP can be registered on the channel after these
        # rules are built, so a rejection must be re-checked, while a
        # certificate once valid stays valid (the registry has no
        # revocation).
        self._cert_memo: set[Certificate] = set()

    def certificate_valid(self, certificate: Certificate) -> bool:
        if certificate in self._cert_memo:
            return True
        valid = self._channel.msp_registry.validate_certificate(certificate)
        if valid:
            if len(self._cert_memo) >= self._CERT_MEMO_MAX:  # pragma: no cover
                self._cert_memo.clear()
            self._cert_memo.add(certificate)
        return valid

    # -- whole blocks ---------------------------------------------------------
    def block_flags(
        self, transactions: Iterable[TransactionEnvelope], view: StateView
    ) -> list[ValidationCode]:
        """The flag of every transaction, honouring intra-block write order.

        Later transactions see the keys written by earlier *valid* ones
        as conflicting (standard Fabric MVCC within a block).
        """
        flags: list[ValidationCode] = []
        writes = BlockWrites()
        seen: set[str] = set()
        for tx in transactions:
            flag = self.static_flag(tx, view, seen)
            if flag is None:
                flag = conflict_flag(tx, view, writes)
            flags.append(flag)
            seen.add(tx.tx_id)
            if flag is ValidationCode.VALID:
                writes.add(tx)
        return flags

    # -- per-transaction checks ----------------------------------------------
    def precheck(
        self, tx: TransactionEnvelope, view: StateView, seen: Container[str] = ()
    ) -> Optional[ValidationCode]:
        """The checks that need no signature; ``None`` when all pass.

        ``seen`` holds the tx ids earlier in the same block.
        """
        if tx.tx_id in seen or view.has_transaction(tx.tx_id):
            return ValidationCode.DUPLICATE_TXID
        if tx.channel_id != self._channel.channel_id:
            return ValidationCode.INVALID_OTHER
        if not self._channel.chaincodes.get(tx.chaincode_id):
            return ValidationCode.INVALID_OTHER
        if not self.certificate_valid(tx.creator):
            return ValidationCode.BAD_CREATOR_SIGNATURE
        return None

    def static_flag(
        self, tx: TransactionEnvelope, view: StateView, seen: Container[str] = ()
    ) -> Optional[ValidationCode]:
        """Every flag but the version checks; ``None`` when all pass.

        A stale read behind a bad signature is flagged for the signature,
        so these checks always run first.
        """
        flag = self.precheck(tx, view, seen)
        if flag is not None:
            return flag
        if not tx.verify_creator_signature():
            return ValidationCode.BAD_CREATOR_SIGNATURE
        if not tx.payload.response.ok:
            return ValidationCode.BAD_RESPONSE_STATUS
        if not self.policy_ok(tx, view):
            return ValidationCode.ENDORSEMENT_POLICY_FAILURE
        return None

    # -- check 1: endorsement policy ---------------------------------------
    def _valid_signers(self, tx: TransactionEnvelope) -> list[Certificate]:
        """Certificates whose endorsement signature verifies over the payload.

        Invalid signatures are dropped rather than failing the transaction
        — they simply do not count towards any policy, as in Fabric.
        """
        payload_bytes = tx.payload.bytes()
        return [
            endorsement.endorser
            for endorsement in tx.endorsements
            if self.certificate_valid(endorsement.endorser)
            and endorsement.verify(payload_bytes)
        ]

    def policy_ok(self, tx: TransactionEnvelope, view: StateView) -> bool:
        """Do the valid signers satisfy every policy that applies to ``tx``?"""
        results = tx.payload.results
        signers = self._valid_signers(tx)

        touched = results.collections_touched()
        if touched and self._features.filter_nonmember_endorsements:
            # Supplemental defense: a PDC transaction only counts
            # endorsements from organizations that are members of every
            # collection it touches.
            member_orgs: Optional[set[str]] = None
            for namespace, collection_name in touched:
                orgs = self._channel.collection(namespace, collection_name).member_orgs()
                member_orgs = orgs if member_orgs is None else member_orgs & orgs
            signers = [c for c in signers if c.msp_id in (member_orgs or set())]

        chaincode_policy_needed = False
        extra_policies: list[str] = []

        if results.is_read_only:
            # The vulnerable rule: read-only transactions use the
            # chaincode-level policy, full stop (Use Case 2) — neither
            # collection-level nor key-level policies of the keys *read*
            # are consulted.
            chaincode_policy_needed = True
            if self._features.collection_policy_on_reads:
                # New Feature 1: also apply collection-level policies to
                # the collections this read-only transaction *read*.
                for namespace, collection_name in sorted(touched):
                    config = self._channel.collection(namespace, collection_name)
                    if config.endorsement_policy is not None:
                        extra_policies.append(config.endorsement_policy)
        else:
            for ns in results.namespaces:
                # Public writes are governed by the key-level policy when
                # one is committed for the key (state-based endorsement),
                # otherwise by the chaincode-level policy.  Changing a
                # key's policy requires satisfying its current one.
                keys = [write.key for write in ns.writes]
                keys += [meta.key for meta in ns.metadata_writes]
                for key in keys:
                    key_policy = view.validation_parameter(ns.namespace, key)
                    if key_policy is not None:
                        extra_policies.append(key_policy.decode("utf-8"))
                    else:
                        chaincode_policy_needed = True
                # Collection writes: collection-level policy or fallback.
                for col in ns.collections:
                    if not col.hashed_writes:
                        continue
                    config = self._channel.collection(ns.namespace, col.collection)
                    if config.endorsement_policy is not None:
                        extra_policies.append(config.endorsement_policy)
                    else:
                        chaincode_policy_needed = True

        if chaincode_policy_needed:
            definition = self._channel.chaincode(tx.chaincode_id)
            if not self._evaluator.evaluate(definition.endorsement_policy, signers):
                return False
        return all(self._evaluator.evaluate(text, signers) for text in extra_policies)
