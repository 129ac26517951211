use crate::mapping::ReplicationPolicy;
use reram_crossbar::{CrossbarConfig, CrossbarCostModel};
use serde::{Deserialize, Serialize};

/// Top-level configuration of a PIM accelerator instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AcceleratorConfig {
    /// Crossbar geometry and precision.
    pub crossbar: CrossbarConfig,
    /// Circuit-level latency/energy/area parameters.
    pub cost: CrossbarCostModel,
    /// Weight replication policy (the `X` of Fig. 4(b)).
    pub replication: ReplicationPolicy,
    /// Average input spike activity used for energy estimates: the fraction
    /// of wordline spikes that fire, scaling spike-driver and cell-read
    /// energy (not latency). The derived `Default` is `0.0`, which charges
    /// no spike-driver or cell-read energy; every published table uses that
    /// default.
    pub activity: f64,
}

impl AcceleratorConfig {
    /// Same configuration with a different replication policy.
    pub fn with_replication(mut self, replication: ReplicationPolicy) -> Self {
        self.replication = replication;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    #[must_use = "the validation outcome must be checked"]
    pub fn validate(&self) -> Result<(), String> {
        self.crossbar.validate()?;
        if !(0.0..=1.0).contains(&self.activity) {
            return Err(format!("activity {} outside [0, 1]", self.activity));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert_eq!(AcceleratorConfig::default().validate(), Ok(()));
    }

    #[test]
    fn bad_activity_rejected() {
        let c = AcceleratorConfig {
            activity: 2.0,
            ..AcceleratorConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_replication_sets_policy() {
        let c = AcceleratorConfig::default().with_replication(ReplicationPolicy::Fixed(4));
        assert_eq!(c.replication, ReplicationPolicy::Fixed(4));
    }
}
