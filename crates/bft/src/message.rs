//! The PBFT message vocabulary.

use fi_types::hash::hash_fields;
use fi_types::{Digest, VotingPower};

/// A client operation: opaque payload identified by `(client_seed, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operation {
    /// Which client issued the operation.
    pub client: u64,
    /// The client's request counter.
    pub counter: u64,
    /// Opaque payload (echoed as the execution result).
    pub payload: u64,
}

impl Operation {
    /// The request digest identifying this operation.
    #[must_use]
    pub fn digest(&self) -> Digest {
        hash_fields(&[
            b"fi-bft-op-v1",
            &self.client.to_be_bytes(),
            &self.counter.to_be_bytes(),
            &self.payload.to_be_bytes(),
        ])
    }
}

/// A prepared certificate carried in view-change messages: evidence that a
/// request reached the prepared state at `(view, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedCert {
    /// The view in which it prepared.
    pub view: u64,
    /// The sequence number.
    pub seq: u64,
    /// The request digest.
    pub digest: Digest,
    /// The operation (carried so the new primary can re-issue it).
    pub op: Operation,
}

/// All messages exchanged by replicas and clients.
#[derive(Debug, Clone, PartialEq)]
pub enum BftMessage {
    /// Client → replicas: please execute `op`.
    Request {
        /// The operation.
        op: Operation,
    },
    /// Primary → replicas: ordering proposal.
    PrePrepare {
        /// Proposal view.
        view: u64,
        /// Assigned sequence number.
        seq: u64,
        /// Digest of `op`.
        digest: Digest,
        /// The operation itself (piggybacked; classic PBFT ships it
        /// separately).
        op: Operation,
    },
    /// Replica → replicas: I accept this proposal.
    Prepare {
        /// Proposal view.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Request digest.
        digest: Digest,
    },
    /// Replica → replicas: I have a prepared certificate.
    Commit {
        /// Proposal view.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Request digest.
        digest: Digest,
    },
    /// Replica → client: execution result.
    Reply {
        /// View at execution time.
        view: u64,
        /// The executed operation.
        op: Operation,
        /// Execution result (payload echo in this state machine).
        result: u64,
    },
    /// Replica → replicas: state digest at a checkpoint sequence.
    Checkpoint {
        /// The checkpointed sequence number.
        seq: u64,
        /// Digest of the execution history up to `seq`.
        state: Digest,
    },
    /// Replica → replicas: move to `new_view`.
    ViewChange {
        /// The proposed view.
        new_view: u64,
        /// Last stable checkpoint sequence.
        last_stable: u64,
        /// Prepared certificates above the stable checkpoint.
        prepared: Vec<PreparedCert>,
    },
    /// New primary → replicas: view `view` starts; re-issued proposals.
    NewView {
        /// The new view.
        view: u64,
        /// The voting power of the view changes that backed this: at least
        /// the quorum, `total − f`.
        support: VotingPower,
        /// Re-issued proposals for prepared sequences.
        preprepares: Vec<PreparedCert>,
    },
}

impl BftMessage {
    /// A short tag for tracing and per-type counting.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            BftMessage::Request { .. } => "request",
            BftMessage::PrePrepare { .. } => "pre-prepare",
            BftMessage::Prepare { .. } => "prepare",
            BftMessage::Commit { .. } => "commit",
            BftMessage::Reply { .. } => "reply",
            BftMessage::Checkpoint { .. } => "checkpoint",
            BftMessage::ViewChange { .. } => "view-change",
            BftMessage::NewView { .. } => "new-view",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_digest_distinguishes_fields() {
        let base = Operation {
            client: 1,
            counter: 2,
            payload: 3,
        };
        let d = base.digest();
        assert_ne!(d, Operation { client: 9, ..base }.digest());
        assert_ne!(d, Operation { counter: 9, ..base }.digest());
        assert_ne!(d, Operation { payload: 9, ..base }.digest());
        assert_eq!(d, base.digest());
    }

    #[test]
    fn tags_cover_all_variants() {
        let op = Operation {
            client: 0,
            counter: 0,
            payload: 0,
        };
        let d = op.digest();
        let msgs = [
            BftMessage::Request { op },
            BftMessage::PrePrepare {
                view: 0,
                seq: 1,
                digest: d,
                op,
            },
            BftMessage::Prepare {
                view: 0,
                seq: 1,
                digest: d,
            },
            BftMessage::Commit {
                view: 0,
                seq: 1,
                digest: d,
            },
            BftMessage::Reply {
                view: 0,
                op,
                result: 0,
            },
            BftMessage::Checkpoint { seq: 0, state: d },
            BftMessage::ViewChange {
                new_view: 1,
                last_stable: 0,
                prepared: vec![],
            },
            BftMessage::NewView {
                view: 1,
                support: VotingPower::new(3),
                preprepares: vec![],
            },
        ];
        let tags: Vec<&str> = msgs.iter().map(BftMessage::tag).collect();
        let mut unique = tags.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), tags.len());
    }
}
