//! The configuration space `D = {d_1, …, d_k}` (paper §IV-A): "the complete
//! space of replica configurations that can be remotely attested", with
//! `d_i ≠ d_j` for all `i ≠ j`.

use std::collections::HashMap;

use fi_types::hash::Digest;

use crate::component::Component;
use crate::configuration::Configuration;
use crate::error::ConfigError;

/// An indexed, duplicate-free set of configurations.
///
/// # Example
///
/// ```
/// use fi_config::{catalog, ConfigurationSpace};
/// let space = ConfigurationSpace::cartesian(&[
///     catalog::operating_systems()[..3].to_vec(),
///     catalog::crypto_libraries()[..2].to_vec(),
/// ])?;
/// assert_eq!(space.len(), 6);
/// # Ok::<(), fi_config::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigurationSpace {
    configs: Vec<Configuration>,
    by_measurement: HashMap<Digest, usize>,
}

impl ConfigurationSpace {
    /// Creates a space from a list of configurations, de-duplicating by
    /// measurement.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptySpace`] if no configurations remain.
    pub fn new(configs: impl IntoIterator<Item = Configuration>) -> Result<Self, ConfigError> {
        let mut space = ConfigurationSpace {
            configs: Vec::new(),
            by_measurement: HashMap::new(),
        };
        for c in configs {
            space.insert(c);
        }
        if space.configs.is_empty() {
            return Err(ConfigError::EmptySpace);
        }
        Ok(space)
    }

    /// Builds the full cartesian product over per-layer alternative lists —
    /// the maximal attestable space given the available COTS choices.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptySpace`] if `layers` is empty or any
    /// layer list is empty.
    pub fn cartesian(layers: &[Vec<Component>]) -> Result<Self, ConfigError> {
        if layers.is_empty() || layers.iter().any(Vec::is_empty) {
            return Err(ConfigError::EmptySpace);
        }
        let mut configs = vec![Configuration::builder().build()];
        for layer in layers {
            let mut next = Vec::with_capacity(configs.len() * layer.len());
            for base in &configs {
                for component in layer {
                    next.push(base.with_component(component.clone()));
                }
            }
            configs = next;
        }
        Self::new(configs)
    }

    /// Inserts a configuration, returning its index (existing index if the
    /// measurement was already present).
    pub fn insert(&mut self, config: Configuration) -> usize {
        let m = config.measurement();
        if let Some(&i) = self.by_measurement.get(&m) {
            return i;
        }
        let i = self.configs.len();
        self.by_measurement.insert(m, i);
        self.configs.push(config);
        i
    }

    /// Number of configurations `k`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the space is empty (only possible before the first insert
    /// on a default-constructed value obtained through deserialization).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The configuration at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownConfiguration`] when out of range.
    pub fn get(&self, index: usize) -> Result<&Configuration, ConfigError> {
        self.configs
            .get(index)
            .ok_or(ConfigError::UnknownConfiguration {
                index,
                space_size: self.configs.len(),
            })
    }

    /// Looks up a configuration's index by its attested measurement.
    #[must_use]
    pub fn position(&self, measurement: &Digest) -> Option<usize> {
        self.by_measurement.get(measurement).copied()
    }

    /// Iterates configurations in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Configuration> {
        self.configs.iter()
    }
}

impl<'a> IntoIterator for &'a ConfigurationSpace {
    type Item = &'a Configuration;
    type IntoIter = std::slice::Iter<'a, Configuration>;

    fn into_iter(self) -> Self::IntoIter {
        self.configs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::catalog;

    fn small_space() -> ConfigurationSpace {
        ConfigurationSpace::cartesian(&[
            catalog::operating_systems()[..2].to_vec(),
            catalog::crypto_libraries()[..2].to_vec(),
        ])
        .unwrap()
    }

    #[test]
    fn cartesian_size_is_product() {
        let space = ConfigurationSpace::cartesian(&[
            catalog::operating_systems()[..3].to_vec(),
            catalog::crypto_libraries()[..2].to_vec(),
            catalog::databases()[..2].to_vec(),
        ])
        .unwrap();
        assert_eq!(space.len(), 12);
    }

    #[test]
    fn cartesian_rejects_empty_layers() {
        assert!(ConfigurationSpace::cartesian(&[]).is_err());
        assert!(ConfigurationSpace::cartesian(&[vec![]]).is_err());
    }

    #[test]
    fn new_deduplicates() {
        let c = Configuration::builder()
            .component(catalog::operating_systems()[0].clone())
            .build();
        let space = ConfigurationSpace::new(vec![c.clone(), c.clone(), c]).unwrap();
        assert_eq!(space.len(), 1);
    }

    #[test]
    fn new_rejects_empty() {
        assert!(matches!(
            ConfigurationSpace::new(vec![]),
            Err(ConfigError::EmptySpace)
        ));
    }

    #[test]
    fn get_and_position_are_consistent() {
        let space = small_space();
        for i in 0..space.len() {
            let c = space.get(i).unwrap();
            assert_eq!(space.position(&c.measurement()), Some(i));
        }
        assert!(space.get(space.len()).is_err());
    }

    #[test]
    fn all_measurements_unique() {
        let space = small_space();
        let mut ms: Vec<_> = space.iter().map(Configuration::measurement).collect();
        let before = ms.len();
        ms.sort();
        ms.dedup();
        assert_eq!(ms.len(), before);
    }

    #[test]
    fn insert_returns_existing_index() {
        let mut space = small_space();
        let existing = space.get(1).unwrap().clone();
        assert_eq!(space.insert(existing), 1);
        let len = space.len();
        let novel = Configuration::builder()
            .component(catalog::databases()[0].clone())
            .build();
        assert_eq!(space.insert(novel), len);
    }

    #[test]
    fn iteration_matches_len() {
        let space = small_space();
        assert_eq!(space.iter().count(), space.len());
        assert_eq!((&space).into_iter().count(), space.len());
        assert!(!space.is_empty());
    }
}
