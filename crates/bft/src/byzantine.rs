//! Byzantine behaviours a compromised replica can adopt.
//!
//! The paper's adversary (§II-B) "arbitrarily delay\[s\], drop\[s\], re-order\[s\],
//! insert\[s\], or modif\[ies\] messages" once a replica is compromised through
//! an exploitable vulnerability. These behaviours are the concrete attack
//! repertoires used in the fault-injection experiments. A `Behavior` is
//! also the simulated fault itself ([`fi_simnet::Node::Fault`] for a BFT
//! node): a scheduled fault sets the replica's behaviour, and a recovery is
//! [`Behavior::Honest`].

/// How a replica behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Behavior {
    /// Protocol-faithful.
    #[default]
    Honest,
    /// Stopped entirely (crash fault; Remark 1's hybrid model).
    Crashed,
    /// Receives but never sends — a compromised replica lying low.
    Silent,
    /// As primary, proposes conflicting orderings to different halves of
    /// the cluster; as backup, votes for corrupted digests. The classic
    /// safety attack.
    Equivocate,
    /// Participates in pre-prepare/prepare but never commits — a liveness
    /// attack that stays under the radar.
    WithholdCommit,
}

impl Behavior {
    /// Whether the replica still emits protocol messages.
    #[must_use]
    pub fn sends_messages(self) -> bool {
        !matches!(self, Behavior::Crashed | Behavior::Silent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Behavior::Honest.sends_messages());
        assert!(!Behavior::Crashed.sends_messages());
        assert!(!Behavior::Silent.sends_messages());
        assert!(Behavior::Equivocate.sends_messages());
        assert_eq!(Behavior::default(), Behavior::Honest);
    }
}
