//! The component taxonomy of a replica's stack (paper §III-A) and a catalog
//! of named COTS alternatives per layer.
//!
//! "We consider three main components of a replica, including trusted
//! hardware, system software, and application software." The application
//! layer is further split, following the paper, into the two modules "most
//! directly related to blockchain dependability": key/account management
//! (wallets) and the consensus module; we also model the cryptographic
//! library (the §II-B example of an implementation fault) and mining
//! software (§III's delegation discussion), plus the external database named
//! among COTS components.

use core::fmt;

use fi_types::hash::{hash_fields, Digest};

/// The configurable layers of a replica stack.
///
/// Ordering is significant only in that it fixes the canonical measurement
/// order of [`crate::Configuration`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentKind {
    /// Hardware-assisted isolated execution (SGX, TrustZone, SEV-SNP, TPMs;
    /// §III-A "Trusted hardware").
    TrustedHardware,
    /// The operating system — "arguably the heaviest component … and the
    /// most targeted" (§III-A).
    OperatingSystem,
    /// The cryptographic library whose *implementation* may be flawed
    /// (§II-B's compromise example).
    CryptoLibrary,
    /// The consensus-module implementation (N-version BFT libraries,
    /// §III-A).
    ConsensusModule,
    /// Key/account management: built-in wallets, third-party wallets,
    /// exchange delegation (§III-A "Wallet").
    KeyManagement,
    /// Mining software / pool client (§III-A's pool-operator oligopoly).
    MiningSoftware,
    /// External database, one of the other COTS components named in §III-A.
    Database,
}

impl ComponentKind {
    /// All kinds in canonical (measurement) order.
    pub const ALL: [ComponentKind; 7] = [
        ComponentKind::TrustedHardware,
        ComponentKind::OperatingSystem,
        ComponentKind::CryptoLibrary,
        ComponentKind::ConsensusModule,
        ComponentKind::KeyManagement,
        ComponentKind::MiningSoftware,
        ComponentKind::Database,
    ];

    /// A short stable label, used in measurements and reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            ComponentKind::TrustedHardware => "trusted-hardware",
            ComponentKind::OperatingSystem => "operating-system",
            ComponentKind::CryptoLibrary => "crypto-library",
            ComponentKind::ConsensusModule => "consensus-module",
            ComponentKind::KeyManagement => "key-management",
            ComponentKind::MiningSoftware => "mining-software",
            ComponentKind::Database => "database",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One concrete COTS product at one layer of the stack: a kind, a product
/// name, and a version string.
///
/// # Example
///
/// ```
/// use fi_config::{Component, ComponentKind};
/// let os = Component::new(ComponentKind::OperatingSystem, "debian", "12.5");
/// assert_eq!(os.kind(), ComponentKind::OperatingSystem);
/// assert_eq!(os.to_string(), "operating-system:debian-12.5");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Component {
    kind: ComponentKind,
    name: String,
    version: String,
}

impl Component {
    /// Creates a component.
    #[must_use]
    pub fn new(kind: ComponentKind, name: impl Into<String>, version: impl Into<String>) -> Self {
        Component {
            kind,
            name: name.into(),
            version: version.into(),
        }
    }

    /// The layer this component occupies.
    #[must_use]
    pub fn kind(&self) -> ComponentKind {
        self.kind
    }

    /// The product name (e.g. `"openssl"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The version string (e.g. `"3.0.13"`).
    #[must_use]
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The measurement digest of this single component.
    #[must_use]
    pub fn measurement(&self) -> Digest {
        hash_fields(&[
            b"fi-component-v1",
            self.kind.label().as_bytes(),
            self.name.as_bytes(),
            self.version.as_bytes(),
        ])
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}-{}", self.kind.label(), self.name, self.version)
    }
}

/// A catalog of plausible COTS alternatives per layer, used by generators,
/// examples, and tests. Names are real products; versions are illustrative.
pub mod catalog {
    use super::{Component, ComponentKind};

    fn build(kind: ComponentKind, items: &[(&str, &str)]) -> Vec<Component> {
        items
            .iter()
            .map(|&(name, version)| Component::new(kind, name, version))
            .collect()
    }

    /// Operating systems — the diversity layer Lazarus manages.
    #[must_use]
    pub fn operating_systems() -> Vec<Component> {
        build(
            ComponentKind::OperatingSystem,
            &[
                ("debian", "12.5"),
                ("ubuntu", "22.04"),
                ("freebsd", "14.0"),
                ("openbsd", "7.4"),
                ("fedora", "39"),
                ("alpine", "3.19"),
                ("windows-server", "2022"),
                ("illumos", "r151048"),
            ],
        )
    }

    /// Cryptographic libraries (§II-B's flawed-crypto-library example).
    #[must_use]
    pub fn crypto_libraries() -> Vec<Component> {
        build(
            ComponentKind::CryptoLibrary,
            &[
                ("openssl", "3.0.13"),
                ("boringssl", "2024-01"),
                ("libressl", "3.8.2"),
                ("mbedtls", "3.5.2"),
                ("wolfssl", "5.6.6"),
            ],
        )
    }

    /// Consensus-module implementations (the N-version BFT library space,
    /// §III-A).
    // lint: allow(unused-pub) paper-facing catalog (§III-A): the consensus-module layer, built into spaces by the configuration and closure unit tests
    #[must_use]
    pub fn consensus_modules() -> Vec<Component> {
        build(
            ComponentKind::ConsensusModule,
            &[
                ("bft-smart", "1.2"),
                ("hotstuff-rs", "0.9"),
                ("tendermint-core", "0.38"),
                ("pbft-classic", "4.1"),
                ("damysus", "1.0"),
            ],
        )
    }

    /// External databases (COTS component, §III-A).
    // lint: allow(unused-pub) paper-facing catalog (§III-A): the database layer, which config_properties spans in its cartesian spaces
    #[must_use]
    pub fn databases() -> Vec<Component> {
        build(
            ComponentKind::Database,
            &[
                ("leveldb", "1.23"),
                ("rocksdb", "8.10"),
                ("lmdb", "0.9.31"),
                ("sqlite", "3.45"),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_accessors() {
        let c = Component::new(ComponentKind::CryptoLibrary, "openssl", "3.0");
        assert_eq!(c.kind(), ComponentKind::CryptoLibrary);
        assert_eq!(c.name(), "openssl");
        assert_eq!(c.version(), "3.0");
    }

    #[test]
    fn display_format() {
        let c = Component::new(ComponentKind::Database, "rocksdb", "8.10");
        assert_eq!(c.to_string(), "database:rocksdb-8.10");
        assert_eq!(ComponentKind::Database.to_string(), "database");
    }

    #[test]
    fn measurement_distinguishes_all_fields() {
        let base = Component::new(ComponentKind::OperatingSystem, "debian", "12");
        let other_kind = Component::new(ComponentKind::Database, "debian", "12");
        let other_name = Component::new(ComponentKind::OperatingSystem, "ubuntu", "12");
        let other_version = Component::new(ComponentKind::OperatingSystem, "debian", "13");
        assert_ne!(base.measurement(), other_kind.measurement());
        assert_ne!(base.measurement(), other_name.measurement());
        assert_ne!(base.measurement(), other_version.measurement());
        assert_eq!(base.measurement(), base.clone().measurement());
    }

    fn catalogs() -> [(ComponentKind, Vec<Component>); 4] {
        [
            (ComponentKind::OperatingSystem, catalog::operating_systems()),
            (ComponentKind::CryptoLibrary, catalog::crypto_libraries()),
            (ComponentKind::ConsensusModule, catalog::consensus_modules()),
            (ComponentKind::Database, catalog::databases()),
        ]
    }

    #[test]
    fn catalog_is_nonempty_and_kind_consistent() {
        for (kind, items) in catalogs() {
            assert!(items.len() >= 4, "{kind} catalog too small");
            assert!(items.iter().all(|c| c.kind() == kind));
        }
    }

    #[test]
    fn catalog_names_are_unique_per_kind() {
        for (kind, items) in catalogs() {
            let mut names: Vec<&str> = items.iter().map(Component::name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), items.len(), "{kind} catalog has duplicates");
        }
    }

    #[test]
    fn all_kinds_listed_once() {
        assert_eq!(ComponentKind::ALL.len(), 7);
        let mut labels: Vec<&str> = ComponentKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7);
    }
}
