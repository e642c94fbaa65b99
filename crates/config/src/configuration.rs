//! A [`Configuration`]: one concrete component choice per layer, with a
//! deterministic attestable measurement.

use std::collections::BTreeMap;

use core::fmt;

use fi_types::hash::{hash_fields, Digest};

use crate::component::{Component, ComponentKind};

/// A replica configuration `d_i ∈ D`: the concrete stack one machine runs.
///
/// Not every layer must be present (a pure BFT validator has no mining
/// software); two configurations are the same element of `D` iff their
/// [`measurement`](Configuration::measurement) digests are equal, which is
/// exactly what remote attestation (paper §III-B) reports.
///
/// # Example
///
/// ```
/// use fi_config::{catalog, Configuration, ComponentKind};
/// let os = catalog::operating_systems()[0].clone();
/// let crypto = catalog::crypto_libraries()[0].clone();
/// let config = Configuration::builder()
///     .component(os.clone())
///     .component(crypto)
///     .build();
/// assert_eq!(config.component(ComponentKind::OperatingSystem), Some(&os));
/// assert!(config.component(ComponentKind::Database).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Configuration {
    components: BTreeMap<ComponentKind, Component>,
}

impl Configuration {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> ConfigurationBuilder {
        ConfigurationBuilder {
            components: BTreeMap::new(),
        }
    }

    /// The component at `kind`, if configured.
    #[must_use]
    pub fn component(&self, kind: ComponentKind) -> Option<&Component> {
        self.components.get(&kind)
    }

    /// Iterates components in canonical (kind) order.
    pub fn components(&self) -> impl Iterator<Item = &Component> {
        self.components.values()
    }

    /// The attestable measurement of the whole stack: a digest over all
    /// components in canonical order. Equal measurements ⇔ identical
    /// configurations.
    #[must_use]
    pub fn measurement(&self) -> Digest {
        let digests: Vec<[u8; 32]> = self
            .components
            .values()
            .map(|c| *c.measurement().as_bytes())
            .collect();
        let mut fields: Vec<&[u8]> = vec![b"fi-configuration-v1"];
        for d in &digests {
            fields.push(d);
        }
        hash_fields(&fields)
    }

    /// A copy with one component replaced (or added). How a diversity
    /// manager's "move replica to another OS" action is expressed.
    #[must_use]
    pub fn with_component(&self, component: Component) -> Configuration {
        let mut components = self.components.clone();
        components.insert(component.kind(), component);
        Configuration { components }
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for c in self.components.values() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Builder for [`Configuration`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct ConfigurationBuilder {
    components: BTreeMap<ComponentKind, Component>,
}

impl ConfigurationBuilder {
    /// Sets the component for its layer (replacing any previous choice at
    /// that layer).
    #[must_use]
    pub fn component(mut self, component: Component) -> Self {
        self.components.insert(component.kind(), component);
        self
    }

    /// Sets multiple components.
    #[must_use]
    pub fn components(mut self, components: impl IntoIterator<Item = Component>) -> Self {
        for c in components {
            self.components.insert(c.kind(), c);
        }
        self
    }

    /// Finishes the configuration. An empty configuration is permitted
    /// (useful as a neutral element); generators always populate at least
    /// one layer.
    #[must_use]
    pub fn build(self) -> Configuration {
        Configuration {
            components: self.components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::catalog;

    fn sample() -> Configuration {
        Configuration::builder()
            .component(catalog::operating_systems()[0].clone())
            .component(catalog::crypto_libraries()[1].clone())
            .component(catalog::consensus_modules()[2].clone())
            .build()
    }

    #[test]
    fn builder_sets_layers() {
        let c = sample();
        assert_eq!(c.components().count(), 3);
        assert!(c.component(ComponentKind::OperatingSystem).is_some());
        assert!(c.component(ComponentKind::Database).is_none());
    }

    #[test]
    fn builder_replaces_same_layer() {
        let oses = catalog::operating_systems();
        let c = Configuration::builder()
            .component(oses[0].clone())
            .component(oses[1].clone())
            .build();
        assert_eq!(c.components().count(), 1);
        assert_eq!(c.component(ComponentKind::OperatingSystem), Some(&oses[1]));
    }

    #[test]
    fn builder_components_bulk() {
        let c = Configuration::builder()
            .components(vec![
                catalog::operating_systems()[0].clone(),
                catalog::databases()[0].clone(),
            ])
            .build();
        assert_eq!(c.components().count(), 2);
    }

    #[test]
    fn measurement_is_deterministic_and_discriminating() {
        let a = sample();
        let b = sample();
        assert_eq!(a.measurement(), b.measurement());
        let c = a.with_component(catalog::operating_systems()[3].clone());
        assert_ne!(a.measurement(), c.measurement());
    }

    #[test]
    fn measurement_is_order_independent() {
        let os = catalog::operating_systems()[0].clone();
        let db = catalog::databases()[0].clone();
        let ab = Configuration::builder()
            .component(os.clone())
            .component(db.clone())
            .build();
        let ba = Configuration::builder().component(db).component(os).build();
        assert_eq!(ab.measurement(), ba.measurement());
    }

    #[test]
    fn empty_configuration_has_distinct_measurement() {
        let empty = Configuration::builder().build();
        assert_ne!(empty.measurement(), sample().measurement());
        assert_eq!(empty.components().count(), 0);
    }

    #[test]
    fn display_lists_components() {
        let s = sample().to_string();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("operating-system"));
    }
}
