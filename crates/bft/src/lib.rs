//! # `fi-bft` — PBFT-style state machine replication under correlated faults
//!
//! A complete three-phase BFT-SMR implementation (pre-prepare / prepare /
//! commit, checkpoints, view changes) running on the deterministic
//! `fi-simnet` simulator. Its purpose in this workspace is to check the
//! paper's safety condition `f ≥ Σ_i f^i_t` (§II-C) *operationally*: the
//! fault-injection harness compromises exactly the replicas sharing a
//! vulnerable component (via `fi-config`'s correlated-fault closure) and the
//! safety checker then inspects the execution histories of honest replicas
//! for divergence.
//!
//! ## Protocol summary
//!
//! * Every replica carries voting power. Over the members' total `n_t`,
//!   `f = ⌊(n_t − 1)/3⌋` power is tolerated and a *quorum* is `n_t − f`
//!   power ([`WeightedQuorum`], the workspace's one quorum rule); every
//!   vote counts at its sender's power. The primary of view `v` is member
//!   `v mod n`, a rotation over the `n` members.
//! * Clients broadcast requests to all replicas; the primary assigns a
//!   sequence number and broadcasts `PrePrepare`, which counts as its own
//!   prepare; replicas broadcast `Prepare`; once matching prepares hold a
//!   quorum's power a request is *prepared* and the replica broadcasts
//!   `Commit`; once matching commits hold a quorum's power it is
//!   *committed* and executed in sequence order. A client accepts a result
//!   once matching replies carry more than `f` power.
//! * Replicas checkpoint every `checkpoint_interval` sequences; matching
//!   checkpoints of a quorum's power make it stable and truncate the log.
//! * A replica that has seen a request pending longer than the view-change
//!   timeout broadcasts `ViewChange` for the next view, carrying its
//!   prepared certificates, and joins any view change backed by more than
//!   `f` power; the new primary, on view changes of a quorum's power,
//!   broadcasts `NewView` re-issuing pre-prepares for every certified
//!   sequence.
//! * Byzantine behaviours ([`byzantine::Behavior`]): crash, going silent,
//!   primary/backup equivocation, and commit-withholding. A
//!   [`ScheduledFault`] sets a replica's behaviour at an exact instant —
//!   the paper's "one vulnerability flips every replica running the
//!   component" — and a recovery is a scheduled [`Behavior::Honest`]. One
//!   runner, [`run_cluster`], takes the whole schedule.
//!
//! ## Example
//!
//! ```
//! use fi_bft::harness::{ClusterConfig, run_cluster};
//!
//! let report = run_cluster(&ClusterConfig::new(4).requests(5), 42, &[]);
//! assert!(report.safety.holds());
//! assert_eq!(report.liveness.executed_requests, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod client;
pub mod harness;
pub mod message;
pub mod replica;
pub mod safety;
pub mod weighted;

pub use byzantine::Behavior;
pub use harness::{
    faults_from_vulnerability, run_cluster, ClusterConfig, ClusterReport, ScheduledFault,
};
pub use message::BftMessage;
pub use replica::Replica;
pub use safety::{LivenessReport, SafetyReport};
pub use weighted::{WeightedQuorum, WeightedVoteSet};

#[cfg(test)]
/// The classic count-quorum cases, checked on the one power rule: `n`
/// members of one unit each must give PBFT's `n = 3f + 1` thresholds.
mod quorum {
    mod tests {
        use crate::WeightedQuorum;
        use fi_types::VotingPower;

        fn units(n: u64) -> Option<WeightedQuorum> {
            WeightedQuorum::for_total(VotingPower::new(n))
        }

        #[test]
        fn classic_sizes() {
            // n = 4: f = 1, quorum 3, and 2 members are more than f.
            let q = units(4).unwrap();
            assert_eq!(q.total(), VotingPower::new(4));
            assert_eq!(q.f_power(), VotingPower::new(1));
            assert_eq!(q.quorum_power(), VotingPower::new(3));
            assert!(!q.tolerates(VotingPower::new(2)));
            // n = 10: f = 3, quorum 7.
            let q = units(10).unwrap();
            assert_eq!(q.f_power(), VotingPower::new(3));
            assert_eq!(q.quorum_power(), VotingPower::new(7));
        }

        #[test]
        fn too_small_clusters_rejected() {
            for n in 0..4 {
                assert!(units(n).is_none(), "n = {n}");
            }
        }

        #[test]
        fn quorum_intersection_contains_honest_replica() {
            for n in 4..40 {
                let q = units(n).unwrap();
                let intersection = 2 * q.quorum_power().as_units() - n;
                assert!(
                    intersection > q.f_power().as_units(),
                    "n = {n}: intersection {intersection} too small"
                );
            }
        }
    }
}
