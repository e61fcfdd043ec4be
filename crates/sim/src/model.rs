//! Model parameters shared by all nodes and the environment.

use gcs_clocks::validate_rho;

/// The environment constants of Section 3: drift bound `ρ`, message-delay
/// bound `T` (the paper's calligraphic T), and discovery bound `D`.
///
/// The paper assumes `D > T` ("nodes do not necessarily find out about
/// changes to the network within T time units"); the constructor enforces
/// it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelParams {
    /// Maximum hardware clock drift `ρ ∈ (0, 1/2]`.
    pub rho: f64,
    /// Message delay bound `T > 0`: every delivered message takes at most
    /// `T` real time.
    pub t: f64,
    /// Discovery bound `D > T`: persistent topology changes are discovered
    /// by the endpoints within `D` real time.
    pub d: f64,
}

impl ModelParams {
    /// Validated constructor.
    pub fn new(rho: f64, t: f64, d: f64) -> Self {
        validate_rho(rho);
        assert!(t.is_finite() && t > 0.0, "delay bound T must be > 0");
        assert!(
            d.is_finite() && d > t,
            "discovery bound D must exceed T (got D={d}, T={t})"
        );
        ModelParams { rho, t, d }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_paper_regime() {
        let p = ModelParams::new(0.01, 1.0, 2.0);
        assert_eq!(p.rho, 0.01);
    }

    #[test]
    #[should_panic(expected = "exceed T")]
    fn rejects_d_not_greater_than_t() {
        let _ = ModelParams::new(0.01, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "delay bound")]
    fn rejects_zero_t() {
        let _ = ModelParams::new(0.01, 0.0, 1.0);
    }
}
