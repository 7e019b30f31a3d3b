//! Experiment workload configuration.

use linkcast_types::{EventSchema, Value, ValueKind};

/// The information-space and subscription-distribution parameters of a
/// simulated workload (paper §4.1: "The broker network simulates an
/// information space with several control parameters, such as the number of
/// attributes in the event schema, the number of values per attribute and
/// the number of factoring levels").
///
/// # Example
///
/// ```
/// use linkcast_workload::WorkloadConfig;
///
/// let config = WorkloadConfig::chart1();
/// assert_eq!(config.attributes, 10);
/// assert_eq!(config.values_per_attribute, 5);
/// let schema = config.schema();
/// assert_eq!(schema.arity(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of attributes in the event schema.
    pub attributes: usize,
    /// Number of distinct values per attribute (integer domain `0..v`).
    pub values_per_attribute: usize,
    /// Number of leading attributes the schema declares factored
    /// ([`EventSchema::factored`]): every search tree over it, in a broker
    /// core or a library router, factors them.
    pub factoring_levels: usize,
    /// Probability that the first attribute of a subscription is non-`*`.
    pub first_non_star_prob: f64,
    /// Geometric decay of the non-`*` probability per attribute position.
    pub non_star_decay: f64,
    /// Zipf exponent for value popularity.
    pub zipf_exponent: f64,
    /// Number of locality regions (one per topology subtree in the paper's
    /// Figure 6 setup).
    pub regions: usize,
    /// Whether regions use distinct value-popularity orders ("locality of
    /// interest").
    pub locality: bool,
}

impl WorkloadConfig {
    /// Parameters of the network-loading run behind **Chart 1**: "The event
    /// schema has 10 attributes (with 2 attributes used for factoring), and
    /// each attribute has 5 values. ... the first attribute is non-`*` with
    /// probability 0.98, and this probability decreases at the rate of 85%".
    pub fn chart1() -> Self {
        WorkloadConfig {
            attributes: 10,
            values_per_attribute: 5,
            factoring_levels: 2,
            first_non_star_prob: 0.98,
            non_star_decay: 0.85,
            zipf_exponent: 1.0,
            regions: 3,
            locality: true,
        }
    }

    /// Parameters of the matching-time run behind **Chart 2**: "The event
    /// schema has 10 attributes (with 3 attributes used for factoring), and
    /// each attribute has 3 values ... probability 0.98 ... decreases at the
    /// rate of 82%".
    pub fn chart2() -> Self {
        WorkloadConfig {
            attributes: 10,
            values_per_attribute: 3,
            factoring_levels: 3,
            first_non_star_prob: 0.98,
            non_star_decay: 0.82,
            zipf_exponent: 1.0,
            regions: 3,
            locality: true,
        }
    }

    /// Probability that attribute `position` is non-`*` in a random
    /// subscription.
    pub fn non_star_prob(&self, position: usize) -> f64 {
        self.first_non_star_prob * self.non_star_decay.powi(position as i32)
    }

    /// Builds the integer event schema `a0..aN`, each attribute with the
    /// enumerated domain `0..values_per_attribute` (finite domains are what
    /// allow factoring and exact link-matching annotations), the first
    /// `factoring_levels` declared factored.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (see
    /// [`WorkloadConfig::validate`]).
    pub fn schema(&self) -> EventSchema {
        self.validate().expect("invalid workload configuration");
        self.build_schema().expect("workload schema is well-formed")
    }

    fn build_schema(&self) -> linkcast_types::Result<EventSchema> {
        let mut b = EventSchema::builder("workload");
        for i in 0..self.attributes {
            b = b.attribute_with_domain(
                format!("a{i}"),
                ValueKind::Int,
                (0..self.values_per_attribute as i64).map(Value::Int),
            );
        }
        b.factored(self.factoring_levels).build()
    }

    /// Checks the configuration for structural problems.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.attributes == 0 {
            return Err("attributes must be positive".into());
        }
        if self.values_per_attribute == 0 {
            return Err("values_per_attribute must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.first_non_star_prob) {
            return Err("first_non_star_prob must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.non_star_decay) {
            return Err("non_star_decay must be in [0, 1]".into());
        }
        if self.regions == 0 {
            return Err("regions must be positive".into());
        }
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return Err("zipf_exponent must be finite and >= 0".into());
        }
        // The schema builder checks the factored prefix.
        self.build_schema().map(drop).map_err(|e| e.to_string())
    }
}

impl Default for WorkloadConfig {
    /// Defaults to the Chart 1 parameters.
    fn default() -> Self {
        Self::chart1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_presets_match_the_paper() {
        let c1 = WorkloadConfig::chart1();
        assert_eq!(
            (c1.attributes, c1.values_per_attribute, c1.factoring_levels),
            (10, 5, 2)
        );
        assert!((c1.non_star_prob(0) - 0.98).abs() < 1e-12);
        assert!((c1.non_star_prob(1) - 0.98 * 0.85).abs() < 1e-12);

        let c2 = WorkloadConfig::chart2();
        assert_eq!(
            (c2.attributes, c2.values_per_attribute, c2.factoring_levels),
            (10, 3, 3)
        );
        assert!((c2.non_star_prob(2) - 0.98 * 0.82 * 0.82).abs() < 1e-12);
    }

    #[test]
    fn schema_has_domains() {
        let s = WorkloadConfig::chart1().schema();
        assert_eq!(s.arity(), 10);
        for a in s.attributes() {
            assert_eq!(a.domain().unwrap().len(), 5);
        }
        assert_eq!(s.factored(), 0..2);
        assert_eq!(WorkloadConfig::chart2().schema().factored(), 0..3);
    }

    #[test]
    fn validation_catches_problems() {
        let mut c = WorkloadConfig::chart1();
        c.factoring_levels = 11;
        assert!(c.validate().is_err());
        c = WorkloadConfig::chart1();
        c.attributes = 0;
        assert!(c.validate().is_err());
        c = WorkloadConfig::chart1();
        c.first_non_star_prob = 1.5;
        assert!(c.validate().is_err());
        c = WorkloadConfig::chart1();
        c.regions = 0;
        assert!(c.validate().is_err());
        c = WorkloadConfig::chart1();
        c.values_per_attribute = 0;
        assert!(c.validate().is_err());
        c = WorkloadConfig::chart1();
        c.zipf_exponent = f64::NAN;
        assert!(c.validate().is_err());
        assert!(WorkloadConfig::chart2().validate().is_ok());
    }
}
