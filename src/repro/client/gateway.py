"""The client SDK / gateway: evaluate and submit transactions.

Implements the client half of the three-phase workflow (Fig. 2):

* :meth:`Gateway.evaluate_transaction` — query-style: endorse at one peer
  and return the payload; nothing is ordered or committed.
* :meth:`Gateway.submit_transaction` — the full pipeline: collect
  endorsements from the requested peers, check that all proposal
  responses agree, assemble and sign the envelope, submit for ordering,
  and report the validation outcome.

The PDC-read leakage of §IV-B1 arises precisely when an application uses
``submit_transaction`` for reads (e.g. to audit who read what): the
response payload rides into the block.  Under New Feature 2 the assembled
payload is the hashed variant while :class:`SubmitResult.payload` still
hands the client the original plaintext (Fig. 4, steps 6-7).

Endorsement collection is **plan-based** by default (the Fabric Gateway
model): when the caller does not pin ``endorsing_peers``, the gateway
computes a minimal endorser set from the chaincode's endorsement policy,
contacts only that set (in parallel sim-time when an event runtime is
attached), completes as soon as the collected responses satisfy every
policy validation will apply, and escalates to backup endorsers on
failure or timeout.  ``REPRO_ENDORSE_PLAN=0`` disables planning and
restores the sequential endorse-everywhere path everywhere.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.common.errors import (
    EndorsementError,
    EndorsementPlanExhaustedError,
    EndorsementTimeoutError,
    ProposalResponseMismatchError,
    TransactionInvalidError,
)
from repro.common.hashing import sha256
from repro.common.tracing import PERF
from repro.identity.identity import SigningIdentity
from repro.policy.planner import (
    EndorsementPlan,
    applied_policies_satisfied,
    plan_endorsement,
)
from repro.protocol.proposal import Proposal, new_proposal
from repro.protocol.response import ProposalResponse
from repro.protocol.transaction import TransactionEnvelope, ValidationCode

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import FabricNetwork
    from repro.peer.node import PeerNode
    from repro.runtime.runtime import PendingTransaction


def endorse_plan_enabled() -> bool:
    """``REPRO_ENDORSE_PLAN=0`` disables policy-aware endorsement plans."""
    return os.environ.get("REPRO_ENDORSE_PLAN", "1") != "0"


def endorsement_timeout() -> float:
    """Sim-time wait per endorsement wave (``REPRO_ENDORSE_TIMEOUT``).

    Clamped to a small positive floor: a plan with no timer could wait
    forever on a dropped message, and liveness accounting expects every
    endorsement to resolve one way or the other.
    """
    return max(0.1, float(os.environ.get("REPRO_ENDORSE_TIMEOUT", "5.0")))


@dataclass(frozen=True)
class SubmitResult:
    """Outcome of a submitted transaction."""

    tx_id: str
    status: ValidationCode
    payload: bytes  # the chaincode response payload as seen by the client
    envelope: TransactionEnvelope

    @property
    def committed(self) -> bool:
        return self.status is ValidationCode.VALID

    def raise_for_status(self) -> "SubmitResult":
        if not self.committed:
            raise TransactionInvalidError(self.tx_id, self.status.value)
        return self


class Gateway:
    """A client application's connection to the network."""

    def __init__(self, identity: SigningIdentity, network: "FabricNetwork") -> None:
        self.identity = identity
        self._network = network

    @property
    def msp_id(self) -> str:
        return self.identity.msp_id

    # -- query path --------------------------------------------------------
    def evaluate_transaction(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str] = (),
        transient: Optional[Mapping[str, bytes]] = None,
        peer: Optional["PeerNode"] = None,
    ) -> bytes:
        """Endorse at a single peer and return the payload (no commit).

        This is the leak-free way to read private data: the response never
        leaves the client/peer pair.
        """
        target = peer or self._network.default_peer_for(self.msp_id)
        proposal = self._proposal(chaincode_id, function, args, transient)
        # Queries are marked reusable: the peer may answer an identical
        # read-only invocation at the same state height from its
        # simulation cache instead of re-executing the chaincode.
        output = self._network.request_endorsement(target, proposal, reusable=True)
        return output.response.client_response.payload

    # -- submit path -----------------------------------------------------------
    def submit_transaction(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str] = (),
        transient: Optional[Mapping[str, bytes]] = None,
        endorsing_peers: Optional[Sequence["PeerNode"]] = None,
        endorsement_plan: Optional[bool] = None,
    ) -> SubmitResult:
        """Run the full execute-order-validate pipeline.

        ``endorsing_peers`` is the client's choice — and choosing
        *favourable* endorsers is exactly the degree of freedom the
        paper's malicious clients exploit.  ``endorsement_plan`` controls
        plan-based collection explicitly; by default a plan is used only
        when no explicit endorser set is pinned (an explicit set keeps
        the exact endorse-everyone semantics attack code depends on).
        """
        if self._use_plan(endorsing_peers, endorsement_plan) and (
            self._network.runtime is not None
        ):
            pending = self.submit_async(
                chaincode_id, function, args, transient=transient,
                endorsing_peers=endorsing_peers, endorsement_plan=endorsement_plan,
            )
            return self._network.runtime.run_until_committed(pending)
        envelope, payload = self._endorse_and_assemble(
            chaincode_id, function, args, transient, endorsing_peers,
            endorsement_plan=endorsement_plan,
        )
        return self._network.submit_envelope(envelope, client_payload=payload)

    def submit_async(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str] = (),
        transient: Optional[Mapping[str, bytes]] = None,
        endorsing_peers: Optional[Sequence["PeerNode"]] = None,
        endorsement_plan: Optional[bool] = None,
    ) -> "PendingTransaction":
        """Pipelined submit: endorse + assemble now, order + commit later.

        With planning active (see :meth:`submit_transaction`) endorsement
        itself rides the event bus: proposals for the plan's opening wave
        are dispatched in parallel sim-time, the collector completes on a
        satisfying quorum, and the future fails with a typed
        :class:`~repro.common.errors.EndorsementError` if the plan cannot
        complete.  Otherwise endorsement stays a synchronous
        request/response round (as in Fabric's gateway) and the assembled
        envelope is enqueued on the runtime.  Requires
        ``network.attach_runtime()``.
        """
        runtime = self._network.runtime
        if runtime is not None and self._use_plan(endorsing_peers, endorsement_plan):
            peers = self._plan_candidates(endorsing_peers)
            if not peers:
                raise EndorsementError("no endorsing peers supplied")
            proposal = self._proposal(chaincode_id, function, args, transient)
            plan = self._build_plan(chaincode_id, peers)
            return runtime.endorse_async(
                self, proposal, plan, timeout=endorsement_timeout()
            )
        envelope, payload = self._endorse_and_assemble(
            chaincode_id, function, args, transient, endorsing_peers,
            endorsement_plan=endorsement_plan,
        )
        return self._network.submit_envelope_async(envelope, client_payload=payload)

    def _endorse_and_assemble(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str],
        transient: Optional[Mapping[str, bytes]],
        endorsing_peers: Optional[Sequence["PeerNode"]],
        endorsement_plan: Optional[bool] = None,
    ) -> tuple[TransactionEnvelope, bytes]:
        """Steps 1-7 of Fig. 2: endorse, check, assemble, sign.

        The synchronous path: with planning active the endorsers are still
        contacted one at a time (there is no bus to parallelize over), but
        collection stops at a satisfying quorum and escalates through the
        backups on failure — the same plan semantics as the fan-out path.
        """
        use_plan = self._use_plan(endorsing_peers, endorsement_plan)
        peers = (
            self._plan_candidates(endorsing_peers)
            if use_plan
            else list(endorsing_peers or self._network.default_endorsers())
        )
        if not peers:
            raise EndorsementError("no endorsing peers supplied")
        proposal = self._proposal(chaincode_id, function, args, transient)

        if use_plan:
            plan = self._build_plan(chaincode_id, peers)
            return self._endorse_with_plan_sync(proposal, plan)

        responses: list[ProposalResponse] = []
        for peer in peers:
            PERF.proposals_sent += 1
            output = self._network.request_endorsement(peer, proposal)
            responses.append(output.response)
        return self._finalize_endorsement(proposal, responses)

    # -- plan-based collection ----------------------------------------------------
    def _use_plan(
        self,
        endorsing_peers: Optional[Sequence["PeerNode"]],
        endorsement_plan: Optional[bool],
    ) -> bool:
        if not endorse_plan_enabled():
            return False
        if endorsement_plan is not None:
            return endorsement_plan
        return endorsing_peers is None

    def _plan_candidates(
        self, endorsing_peers: Optional[Sequence["PeerNode"]]
    ) -> list["PeerNode"]:
        """The ordered candidate pool a plan is computed over.

        An explicit endorser set is used as given (the caller's preference
        order).  Otherwise the pool is the default one-peer-per-org set
        followed by every remaining peer as escalation backups.
        """
        if endorsing_peers is not None:
            return list(endorsing_peers)
        defaults = self._network.default_endorsers()
        chosen = set(id(p) for p in defaults)
        extras = [p for p in self._network.peers() if id(p) not in chosen]
        return defaults + extras

    def _build_plan(
        self, chaincode_id: str, candidates: Sequence["PeerNode"]
    ) -> EndorsementPlan:
        evaluator = self._network.channel.evaluator()
        policy = self._network.channel.chaincode(chaincode_id).endorsement_policy
        return plan_endorsement(evaluator, policy, candidates)

    def _quorum_satisfied(
        self, proposal: Proposal, responses: Sequence[ProposalResponse]
    ) -> bool:
        """Do the collected responses satisfy every applicable policy?

        Checked against the policies validation will actually apply —
        derived from the first response's read/write set — so an early
        quorum can never commit a transaction the full endorser set could
        not (policy evaluation is monotone in the signer set).
        """
        certs = [r.endorsement.endorser for r in responses]
        return applied_policies_satisfied(
            self._network.channel,
            self._network.features,
            proposal.chaincode_id,
            certs,
            responses[0].payload,
        )

    def _endorse_with_plan_sync(
        self, proposal: Proposal, plan: EndorsementPlan
    ) -> tuple[TransactionEnvelope, bytes]:
        """Plan collection without a runtime: sequential, early-quorum."""
        responses: list[ProposalResponse] = []
        failures: list[EndorsementError] = []

        def satisfied() -> bool:
            return bool(responses) and self._quorum_satisfied(proposal, responses)

        remaining = list(plan.candidates)
        primary_left = len(plan.primary)
        while remaining and not satisfied():
            peer = remaining.pop(0)
            escalation = primary_left <= 0
            primary_left -= 1
            PERF.proposals_sent += 1
            if escalation:
                PERF.plan_escalations += 1
            try:
                output = self._network.request_endorsement(peer, proposal)
            except EndorsementError as exc:
                failures.append(exc)
            else:
                responses.append(output.response)

        if satisfied() or (not failures and responses):
            # Either a satisfying quorum, or every candidate endorsed OK
            # and the pool cannot satisfy the policy — submit anyway and
            # let validation reject (legacy endorse-everywhere semantics
            # the §IV-A attack probes rely on).
            return self._finalize_endorsement(proposal, responses)
        PERF.plan_failures += 1
        timeouts_only = bool(failures) and all(
            isinstance(exc, EndorsementTimeoutError) for exc in failures
        )
        error_cls = (
            EndorsementTimeoutError if timeouts_only else EndorsementPlanExhaustedError
        )
        error = error_cls(
            f"endorsement plan for transaction {proposal.tx_id} exhausted all "
            f"{plan.size} candidate endorsers without a satisfying quorum"
        )
        for exc in failures:
            response = getattr(exc, "response", None)
            if response is not None:
                error.response = response  # type: ignore[attr-defined]
        raise error from (failures[-1] if failures else None)

    def _finalize_endorsement(
        self, proposal: Proposal, responses: list[ProposalResponse]
    ) -> tuple[TransactionEnvelope, bytes]:
        """The client-side tail: consistency checks, assembly, signing."""
        started = time.perf_counter()
        try:
            self._check_consistency(proposal, responses)
            envelope = self.assemble(proposal, responses)
        finally:
            PERF.add_phase_time("endorse", time.perf_counter() - started)
        return envelope, responses[0].client_response.payload

    def submit_with_retry(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str] = (),
        transient: Optional[Mapping[str, bytes]] = None,
        endorsing_peers: Optional[Sequence["PeerNode"]] = None,
        max_attempts: int = 3,
    ) -> SubmitResult:
        """Submit, re-endorsing on MVCC/phantom conflicts.

        Version conflicts are the *expected* outcome of concurrent
        read-modify-writes (Section II-B3); the standard client remedy is
        to re-simulate against fresh state and resubmit.  An orderer
        early abort (``REPRO_REORDER=1``) is the same verdict delivered
        sooner, so it is retried the same way.  Other failure codes are
        not retried — they indicate policy or integrity problems, not
        contention.
        """
        from repro.workload.retry import RETRIABLE_STATUSES

        last: SubmitResult | None = None
        for _attempt in range(max_attempts):
            last = self.submit_transaction(
                chaincode_id, function, args, transient=transient,
                endorsing_peers=endorsing_peers,
            )
            if last.status not in RETRIABLE_STATUSES:
                return last
        assert last is not None
        return last

    # -- the execution-phase client checks ----------------------------------------
    def _check_consistency(self, proposal: Proposal, responses: list[ProposalResponse]) -> None:
        """The client-side agreement + signature checks.

        All returned proposal-response payloads must be byte-identical and
        every endorsement signature must verify.  Under New Feature 2 the
        client additionally recomputes ``hash(payload)`` and checks it is
        what the endorser actually signed (Fig. 4, step 6).

        Each endorsement is verified on its own, in response order, and
        the first bad one is reported.  One proposal's endorsements come
        from distinct endorsers, and for distinct keys a batch equation
        costs more multiplications than the individual ones until about
        11 signatures (docs/architecture.md §9).
        """
        reference = responses[0].payload.bytes()
        for response in responses:
            if response.payload.bytes() != reference:
                raise ProposalResponseMismatchError(
                    f"endorsers returned divergent results for tx {proposal.tx_id}"
                )
            signed = response.payload.response.payload
            original = response.client_response.payload
            if signed != original and signed != sha256(original):
                raise EndorsementError(
                    "signed payload is neither the original nor its hash"
                )
        for response in responses:
            if not response.endorsement.verify(reference):
                raise EndorsementError(
                    f"invalid endorsement signature from "
                    f"{response.endorsement.endorser.enrollment_id}"
                )

    def assemble(
        self, proposal: Proposal, responses: list[ProposalResponse]
    ) -> TransactionEnvelope:
        """Assemble and sign the transaction envelope."""
        unsigned = TransactionEnvelope(
            tx_id=proposal.tx_id,
            channel_id=proposal.channel_id,
            chaincode_id=proposal.chaincode_id,
            creator=self.identity.certificate,
            payload=responses[0].payload,
            endorsements=tuple(r.endorsement for r in responses),
            signature=b"",
            function=proposal.function,
            args=proposal.args,
        )
        return replace(unsigned, signature=self.identity.sign(unsigned.signed_bytes()))

    def _proposal(
        self,
        chaincode_id: str,
        function: str,
        args: Sequence[str],
        transient: Optional[Mapping[str, bytes]] = None,
    ) -> Proposal:
        return new_proposal(
            channel_id=self._network.channel.channel_id,
            chaincode_id=chaincode_id,
            function=function,
            args=tuple(args),
            creator=self.identity.certificate,
            transient=transient,
        )
