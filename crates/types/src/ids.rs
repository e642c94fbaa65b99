//! Identifier newtypes for replicas, clients, mining pools, and
//! vulnerabilities.
//!
//! Keeping these distinct types (rather than bare `u64`/`usize`) prevents a
//! whole class of index-confusion bugs in the simulators, per C-NEWTYPE.

use core::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from a raw index.
            #[must_use]
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// Returns the raw index.
            #[must_use]
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// Returns the raw index as a `usize`, for indexing node tables.
            #[must_use]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                $name(raw as u64)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// Identifies a replica (a machine holding voting power, §II-A).
    ///
    /// ```
    /// use fi_types::ReplicaId;
    /// assert_eq!(ReplicaId::new(3).to_string(), "r3");
    /// ```
    ReplicaId,
    "r"
);

id_newtype!(
    /// Identifies a client submitting requests to the BFT service.
    ///
    /// ```
    /// use fi_types::ClientId;
    /// assert_eq!(ClientId::new(0).to_string(), "c0");
    /// ```
    ClientId,
    "c"
);

id_newtype!(
    /// Identifies a mining pool in the Nakamoto simulator (§III delegation).
    ///
    /// ```
    /// use fi_types::PoolId;
    /// assert_eq!(PoolId::new(1).to_string(), "pool1");
    /// ```
    PoolId,
    "pool"
);

id_newtype!(
    /// Identifies a vulnerability in the vulnerability database (§II-B: the
    /// i-th of `k_t` diverse vulnerabilities).
    ///
    /// ```
    /// use fi_types::VulnId;
    /// assert_eq!(VulnId::new(2).to_string(), "vuln2");
    /// ```
    VulnId,
    "vuln"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_trips() {
        let id = ReplicaId::new(17);
        assert_eq!(id.as_u64(), 17);
        assert_eq!(id.as_usize(), 17);
        assert_eq!(u64::from(id), 17);
        assert_eq!(ReplicaId::from(17u64), id);
        assert_eq!(ReplicaId::from(17usize), id);
    }

    #[test]
    fn display_prefixes_are_distinct() {
        assert_eq!(ReplicaId::new(1).to_string(), "r1");
        assert_eq!(ClientId::new(1).to_string(), "c1");
        assert_eq!(PoolId::new(1).to_string(), "pool1");
        assert_eq!(VulnId::new(1).to_string(), "vuln1");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(ReplicaId::new(1) < ReplicaId::new(2));
    }

    #[test]
    fn usable_as_hash_keys() {
        let set: HashSet<ReplicaId> = (0..4).map(ReplicaId::new).collect();
        assert_eq!(set.len(), 4);
        assert!(set.contains(&ReplicaId::new(3)));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(ReplicaId::default(), ReplicaId::new(0));
    }
}
