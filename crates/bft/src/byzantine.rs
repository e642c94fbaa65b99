//! Byzantine behaviours a compromised replica can adopt.
//!
//! The paper's adversary (§II-B) "arbitrarily delay\[s\], drop\[s\], re-order\[s\],
//! insert\[s\], or modif\[ies\] messages" once a replica is compromised through
//! an exploitable vulnerability. These behaviours are the concrete attack
//! repertoires used in the fault-injection experiments; the `flavor` byte of
//! [`fi_simnet::FaultEvent::Compromise`] selects one.

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
    /// Encodes the behaviour into the simulator's compromise flavor byte.
    #[must_use]
    pub fn to_flavor(self) -> u8 {
        match self {
            Behavior::Honest => 0,
            Behavior::Crashed => 1,
            Behavior::Silent => 2,
            Behavior::Equivocate => 3,
            Behavior::WithholdCommit => 4,
        }
    }

    /// Decodes a compromise flavor byte (unknown flavors degrade to
    /// [`Behavior::Silent`], the conservative default).
    #[must_use]
    pub fn from_flavor(flavor: u8) -> Self {
        match flavor {
            0 => Behavior::Honest,
            1 => Behavior::Crashed,
            3 => Behavior::Equivocate,
            4 => Behavior::WithholdCommit,
            _ => Behavior::Silent,
        }
    }

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
    fn flavor_round_trip() {
        for b in [
            Behavior::Honest,
            Behavior::Crashed,
            Behavior::Silent,
            Behavior::Equivocate,
            Behavior::WithholdCommit,
        ] {
            assert_eq!(Behavior::from_flavor(b.to_flavor()), b);
        }
    }

    #[test]
    fn unknown_flavor_degrades_to_silent() {
        assert_eq!(Behavior::from_flavor(99), Behavior::Silent);
    }

    #[test]
    fn classification() {
        assert!(Behavior::Honest.sends_messages());
        assert!(!Behavior::Crashed.sends_messages());
        assert!(!Behavior::Silent.sends_messages());
        assert!(Behavior::Equivocate.sends_messages());
        assert_eq!(Behavior::default(), Behavior::Honest);
    }
}
