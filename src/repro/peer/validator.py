"""Transaction validation: the proof-of-policy (PoP) consensus checks.

Every committing peer validates each transaction of a delivered block
independently, through the endorsement-policy check and the version
(MVCC) check the paper names (Section II-B3).  The rules themselves —
including the paper's Use Case 2 and both defense features — live in
:mod:`repro.peer.rules`, shared with the conflict-aware orderer; this
module adds what only a peer needs: the shared VSCC memo across the
peers of a channel and the batched signature pre-pass.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional, Sequence

from repro.common import crypto
from repro.common.tracing import PERF
from repro.core.defense.features import FrameworkFeatures
from repro.ledger.block import Block
from repro.ledger.ledger import PeerLedger
from repro.peer.rules import ValidationRules
from repro.protocol.transaction import ValidationCode

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.channel import ChannelConfig


# The shared VSCC memo: per channel object, {(block hash, features) ->
# flag tuple}.  Validation is a deterministic function of (block bytes,
# channel policies, feature flags, pre-block ledger state); the block
# hash pins the whole chain prefix — and therefore the pre-block state —
# while the channel object pins the policies and MSP roots, so the
# 2nd..Nth peer validating the same delivered block reuses the first
# peer's flags without re-running any crypto.  Stashing the memo on the
# channel *instance* (every peer of a network shares one ChannelConfig)
# means distinct networks never share entries even when their blocks are
# byte-identical (seed replays rebuild the channel from scratch), and the
# memo's lifetime is exactly the channel's.
_SHARED_VSCC_MAX_BLOCKS = 65_536


def _shared_memo_for(channel: "ChannelConfig") -> dict:
    memo = getattr(channel, "_vscc_memo", None)
    if memo is None:
        memo = {}
        channel._vscc_memo = memo  # type: ignore[attr-defined]
    return memo


class Validator:
    """VSCC + MVCC validation for one peer on one channel."""

    def __init__(
        self,
        channel: "ChannelConfig",
        features: FrameworkFeatures,
        use_shared_memo: bool = True,
        use_batch: bool = True,
    ) -> None:
        self._channel = channel
        self._features = features
        self._rules = ValidationRules(channel, features)
        self._use_shared_memo = use_shared_memo
        self._use_batch = use_batch

    # -- block-level entry point ------------------------------------------
    def validate_block(self, block: Block, ledger: PeerLedger) -> list[ValidationCode]:
        """Every transaction's flag, by :meth:`ValidationRules.block_flags`.

        Fast path: if the *shared VSCC memo* holds the flag vector another
        peer already computed for this exact block (same channel, same
        feature flags — the block hash pins the chain prefix and hence the
        pre-block state), it is returned without re-running any checks.
        Otherwise all of the block's signature checks are collected into
        one batched Schnorr verification before the per-transaction rules
        run.
        """
        memo: Optional[dict] = None
        memo_key = None
        if self._use_shared_memo:
            memo = _shared_memo_for(self._channel)
            memo_key = (block.header.block_hash(), self._features)
            hit = memo.get(memo_key)
            if hit is not None:
                PERF.vscc_memo_hits += 1
                return list(hit)
        flags = self._validate_block_fresh(block, ledger)
        if memo is not None:
            PERF.vscc_memo_misses += 1
            if len(memo) >= _SHARED_VSCC_MAX_BLOCKS:  # pragma: no cover - backstop
                memo.clear()
            memo[memo_key] = tuple(flags)
        return flags

    def _validate_block_fresh(
        self, block: Block, ledger: PeerLedger
    ) -> list[ValidationCode]:
        if self._use_batch:
            self._prewarm_signatures(block, ledger)
        return self._rules.block_flags(block.transactions, ledger)

    def _prewarm_signatures(self, block: Block, ledger: PeerLedger) -> None:
        """Collect the block's signature checks into one batched call.

        The batch call settles every signature in the shared verification
        cache, so the rules below find each `verify` already answered;
        validation *decisions* are taken by exactly the same rules in the
        same order as the unbatched path.
        """
        items = self._collect_signature_items(block, ledger)
        if len(items) > 1:
            crypto.verify_batch(items, seed=block.header.prev_hash)

    def _collect_signature_items(self, block: Block, ledger: PeerLedger) -> list[tuple]:
        """The block's batchable ``(public_key, message, signature)`` checks.

        Only transactions that pass the rules' signature-free prechecks
        (duplicate tx-id, channel, chaincode, certificate validity) and,
        for endorsements, the response status contribute — anything else
        short-circuits before its signatures are ever consulted.
        """
        items: list[tuple] = []
        seen: set[str] = set()
        for tx in block.transactions:
            eligible = self._rules.precheck(tx, ledger, seen) is None
            seen.add(tx.tx_id)
            if not eligible:
                continue
            items.append((tx.creator.public_key, tx.signed_bytes(), tx.signature))
            if not tx.payload.response.ok:
                continue
            payload_bytes = tx.payload.bytes()
            for endorsement in tx.endorsements:
                if self._rules.certificate_valid(endorsement.endorser):
                    items.append(
                        (endorsement.endorser.public_key, payload_bytes, endorsement.signature)
                    )
        return items

    def signature_workload(self, block: Block, ledger: PeerLedger) -> list[int]:
        """Per-public-key signature group sizes for this block.

        This is the weight vector the execution backend's shard planner
        (and the simulated-time :class:`~repro.runtime.executor.\
ValidationCostModel`) operate on — the batch verifier keeps each key's
        signatures in one shard, so the group sizes bound the achievable
        split.  No cryptography runs; only the structural pre-checks the
        batch collector itself performs.
        """
        groups: dict[int, int] = {}
        for public_key, _message, _signature in self._collect_signature_items(block, ledger):
            groups[public_key.y] = groups.get(public_key.y, 0) + 1
        return list(groups.values())


# ---------------------------------------------------------------------------
# Multi-channel block validation
# ---------------------------------------------------------------------------

def validate_blocks(
    jobs: Sequence[tuple[Validator, Block, PeerLedger]],
) -> list[list[ValidationCode]]:
    """Validate one block per channel with a single combined signature pass.

    A peer serving several channels (P2 in Fig. 1) receives one block per
    channel per delivery round; validating them one at a time leaves the
    execution backend's workers idle between blocks.  This entry point
    collects every job's batchable signature checks into **one**
    ``verify_batch`` call — which the backend shards across its workers —
    then runs each job's full validation pipeline *in job order*, where
    every signature check is already settled in the shared verification
    cache.  The flags are therefore byte-identical to calling
    ``validator.validate_block(block, ledger)`` per job: the combined
    batch only changes where (and how parallel) the crypto runs, never
    what any rule decides.

    ``jobs`` is a sequence of ``(validator, block, ledger)`` triples; the
    per-job flag lists come back in the same order — the deterministic
    merge point at the block boundary.
    """
    items: list[tuple] = []
    transcript = hashlib.sha256(b"repro-multi-channel-batch")
    for validator, block, ledger in jobs:
        if not validator._use_batch:
            continue
        items.extend(validator._collect_signature_items(block, ledger))
        transcript.update(block.header.block_hash())
    if len(items) > 1:
        crypto.verify_batch(items, seed=transcript.digest())
    return [
        validator.validate_block(block, ledger) for validator, block, ledger in jobs
    ]
