//! # `fi-committee` — diversity-enforcing committee selection
//!
//! Permissionless protocols that elect a consensus committee (paper §II-A's
//! "membership selection to form a consensus committee", ref \[15\]) get to
//! *choose* which replicas hold voting power. That choice is the one lever a
//! permissionless system has for fault independence: given attested
//! configurations (from `fi-attest`), the selection policy can maximise the
//! entropy of the committee's configuration distribution instead of blindly
//! following stake.
//!
//! Policies implemented:
//!
//! * [`baseline::top_stake`] — highest stake wins (what delegation
//!   concentrates toward; the paper's oligopoly);
//! * [`baseline::random_weighted`] — classic stake-weighted sortition;
//! * [`greedy::greedy_diverse`] — pick members to maximise committee
//!   entropy at every step;
//! * [`PrunedRoster::select_tolerant`] — the greedy committee, repaired
//!   until no one configuration holds more than the quorum rule's `f` of
//!   its power ([`Committee::tolerates_one_config`]);
//! * [`twotier::two_tier_weighted`] — the paper's §V sketch: attested
//!   candidates weigh more than unattested ones in the sortition.
//!
//! Both greedy policies run on one engine, [`pruned`]: it indexes
//! candidates per configuration bucket and brackets each bucket's
//! *analytic* entropy peak so a selection is subquadratic.
//! [`greedy::greedy_diverse`] builds that index over a caller's candidates
//! and selects from it; an epoch snapshot carries the index prebuilt. The
//! tolerant selection runs the same rounds, then, while one configuration
//! holds more than `f`, ejects that configuration's heaviest member and
//! runs one more round: no second engine and no cap to tune. `select`
//! and `greedy_diverse` are held, member for member, to the naive
//! per-candidate fold, `greedy::greedy_diverse_naive`. [`radix`]
//! is the stable radix sort a differential seal orders its staged churn
//! with: the index's rows and the churned replica ids.
//!
//! ## Example
//!
//! ```
//! use fi_committee::prelude::*;
//! use fi_types::{ReplicaId, VotingPower};
//!
//! // 12 candidates on 3 configurations, heavily skewed stake.
//! let candidates: Vec<Candidate> = (0..12)
//!     .map(|i| Candidate::new(
//!         ReplicaId::new(i),
//!         VotingPower::new(if i == 0 { 1_000 } else { 50 }),
//!         (i % 3) as usize,
//!         true,
//!     ))
//!     .collect();
//! let by_stake = top_stake(&candidates, 6);
//! let diverse = greedy_diverse(&candidates, 6);
//! // The diverse committee never has lower configuration entropy.
//! assert!(diverse.entropy_bits() >= by_stake.entropy_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod candidate;
pub mod greedy;
pub mod pruned;
pub mod radix;
pub mod twotier;

pub use baseline::{random_weighted, top_stake};
pub use candidate::{Candidate, Committee};
pub use greedy::greedy_diverse;
pub use pruned::{PatchError, PrunedRoster};
pub use twotier::two_tier_weighted;

/// What a warm-started selection reports, kept for the benchmark's
/// `committee.warm_*` metrics until they are retired. There is no warm
/// start: on a 1 ‰-churn differential seal plus `select(64)` at 10⁶
/// devices it saved under 10 % (the `fleet_seal` trial recorded in
/// ROADMAP.md), so every selection runs cold and reports `replayed: 0`,
/// `fell_back: true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmReport {
    /// Rounds replayed from the previous committee: always 0.
    pub replayed: usize,
    /// Whether the selection ran cold: always `true`.
    pub fell_back: bool,
}

/// Convenient glob import.
pub mod prelude {
    pub use crate::baseline::{random_weighted, top_stake};
    pub use crate::candidate::{Candidate, Committee};
    pub use crate::greedy::greedy_diverse;
    pub use crate::pruned::{PatchError, PrunedRoster};
    pub use crate::twotier::two_tier_weighted;
}
