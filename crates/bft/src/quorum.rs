//! Quorum arithmetic for `n = 3f + 1` BFT systems.
//!
//! The paper (§I): "The resilience of BFT protocols, i.e., the number of
//! tolerated Byzantine replicas (denoted f), is derived from the total
//! number of replicas according to the quorum theory."

/// Quorum sizes for a cluster of `n` replicas.
///
/// # Example
///
/// ```
/// use fi_bft::QuorumParams;
/// let q = QuorumParams::for_n(7).unwrap();
/// assert_eq!(q.f(), 2);
/// assert_eq!(q.quorum(), 5);      // 2f + 1
/// assert_eq!(q.weak_quorum(), 3); // f + 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuorumParams {
    n: usize,
    f: usize,
}

impl QuorumParams {
    /// Derives quorum parameters for `n` replicas: `f = ⌊(n − 1) / 3⌋`.
    /// Returns `None` for `n < 4` (no Byzantine fault tolerance possible
    /// below four replicas).
    #[must_use]
    pub fn for_n(n: usize) -> Option<Self> {
        if n < 4 {
            return None;
        }
        Some(QuorumParams { n, f: (n - 1) / 3 })
    }

    /// Total replicas.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tolerated Byzantine replicas.
    #[must_use]
    pub fn f(&self) -> usize {
        self.f
    }

    /// The commit/prepare quorum `n − f` (equal to `2f + 1` at the minimal
    /// `n = 3f + 1`; for larger `n` this is the size that keeps any two
    /// quorums intersecting in at least `f + 1` replicas).
    #[must_use]
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// The weak (reply/view-change-proof) quorum `f + 1`: at least one
    /// honest replica among any such set.
    #[must_use]
    pub fn weak_quorum(&self) -> usize {
        self.f + 1
    }

    /// The primary of view `v`.
    #[must_use]
    pub fn primary_of(&self, view: u64) -> usize {
        (view % self.n as u64) as usize
    }

    /// Quorum-intersection safety margin: any two quorums intersect in at
    /// least `2·quorum − n = f + 1` replicas, i.e. at least one honest one.
    #[must_use]
    pub fn quorum_intersection(&self) -> usize {
        2 * self.quorum() - self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_sizes() {
        let q = QuorumParams::for_n(4).unwrap();
        assert_eq!((q.n(), q.f(), q.quorum(), q.weak_quorum()), (4, 1, 3, 2));
        let q = QuorumParams::for_n(10).unwrap();
        assert_eq!((q.f(), q.quorum()), (3, 7));
    }

    #[test]
    fn too_small_clusters_rejected() {
        for n in 0..4 {
            assert!(QuorumParams::for_n(n).is_none());
        }
    }

    #[test]
    fn quorum_intersection_contains_honest_replica() {
        for n in 4..40 {
            let q = QuorumParams::for_n(n).unwrap();
            assert!(
                q.quorum_intersection() > q.f(),
                "n = {n}: intersection {} too small",
                q.quorum_intersection()
            );
        }
    }

    #[test]
    fn primary_rotates_through_all_replicas() {
        let q = QuorumParams::for_n(4).unwrap();
        let primaries: Vec<usize> = (0..8).map(|v| q.primary_of(v)).collect();
        assert_eq!(primaries, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }
}
