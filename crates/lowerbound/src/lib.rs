#![warn(missing_docs)]

//! # gcs-lowerbound
//!
//! Executable versions of the paper's lower-bound machinery (Section 4):
//!
//! * [`mask`] — delay masks `M = (E_C, P)` and the *flexible distance*
//!   `dist_M(u, v)` (minimum number of unconstrained edges on any path,
//!   Definition 4.3), computed by 0–1 BFS.
//! * [`masking`] — the Masking Lemma (Lemma 4.2) made executable: a
//!   legality checker that verifies the Part II case analysis (β-delays
//!   in `[0, T]`, constrained edges in `[P/(1+ρ), P]`) for arbitrary
//!   send times, on the α and β delay formulas of `gcs_sim::delay` that
//!   the engine's adversaries run, plus the lemma's skew bound and
//!   ready time.
//! * [`subsequence`] — Lemma 4.3: extraction of a subsequence whose
//!   consecutive gaps all lie in `[c−d, c]`, used to place the new edges
//!   `E_new` carrying prescribed skew.
//! * [`theorem41`] — the Theorem 4.1 scenario: the two-chain network with
//!   delay-masked blocks, the β adversary (rates + delays) that drives a
//!   real algorithm into the Ω(n) skew configuration of Figure 1(a), and
//!   the `E_new` placement of Figure 1(b).
//!
//! # Example
//!
//! Lemma 4.3 made executable: from any increasing sequence, extract a
//! subsequence whose consecutive gaps all land in `[c−d, c]`, verified by
//! the bundled checker:
//!
//! ```
//! use gcs_lowerbound::subsequence::{check_lemma43, lemma43_subsequence};
//!
//! let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.7).collect();
//! let (c, d) = (3.0, 1.0);
//! let picked = lemma43_subsequence(&xs, c, d);
//! check_lemma43(&xs, c, d, &picked).expect("gaps must lie in [c-d, c]");
//! for w in picked.windows(2) {
//!     let gap = xs[w[1]] - xs[w[0]];
//!     assert!(gap >= c - d - 1e-12 && gap <= c + 1e-12);
//! }
//! ```

pub mod mask;
pub mod masking;
pub mod subsequence;
pub mod theorem41;

pub use mask::{flexible_layers, DelayMask};
pub use subsequence::lemma43_subsequence;
pub use theorem41::Theorem41Scenario;
