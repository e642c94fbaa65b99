//! Message latency models.

use fi_types::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

/// How long a message takes from send to delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimTime),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Minimum latency.
        min: SimTime,
        /// Maximum latency.
        max: SimTime,
    },
    /// Exponential with the given mean, shifted by a floor (propagation
    /// delay); the classic WAN model.
    Exponential {
        /// Minimum (floor) latency added to every draw.
        floor: SimTime,
        /// Mean of the exponential component.
        mean: SimTime,
    },
}

impl Default for LatencyModel {
    /// 1 ms constant — a fast LAN.
    fn default() -> Self {
        LatencyModel::Constant(SimTime::from_millis(1))
    }
}

impl LatencyModel {
    /// Samples one latency.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` model has `min > max`.
    #[must_use]
    pub fn sample(&self, rng: &mut StdRng) -> SimTime {
        match *self {
            LatencyModel::Constant(t) => t,
            LatencyModel::Uniform { min, max } => {
                assert!(min <= max, "uniform latency requires min <= max");
                if min == max {
                    min
                } else {
                    SimTime::from_micros(rng.gen_range(min.as_micros()..=max.as_micros()))
                }
            }
            LatencyModel::Exponential { floor, mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let exp_micros = -(u.ln()) * mean.as_micros() as f64;
                floor.saturating_add(SimTime::from_micros(exp_micros as u64))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_always_same() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = LatencyModel::Constant(SimTime::from_millis(3));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimTime::from_millis(3));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Uniform {
            min: SimTime::from_millis(2),
            max: SimTime::from_millis(8),
        };
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!(s >= SimTime::from_millis(2) && s <= SimTime::from_millis(8));
        }
    }

    #[test]
    fn uniform_degenerate_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Uniform {
            min: SimTime::from_millis(5),
            max: SimTime::from_millis(5),
        };
        assert_eq!(m.sample(&mut rng), SimTime::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn uniform_rejects_inverted() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Uniform {
            min: SimTime::from_millis(9),
            max: SimTime::from_millis(1),
        };
        let _ = m.sample(&mut rng);
    }

    #[test]
    fn exponential_respects_floor_and_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyModel::Exponential {
            floor: SimTime::from_millis(10),
            mean: SimTime::from_millis(20),
        };
        let n = 20_000;
        let mut total = 0u64;
        for _ in 0..n {
            let s = m.sample(&mut rng);
            assert!(s >= SimTime::from_millis(10));
            total += s.as_micros() - 10_000;
        }
        let mean = total as f64 / n as f64;
        assert!((mean - 20_000.0).abs() < 1_000.0, "empirical mean {mean}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = LatencyModel::Exponential {
            floor: SimTime::ZERO,
            mean: SimTime::from_millis(5),
        };
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }
}
