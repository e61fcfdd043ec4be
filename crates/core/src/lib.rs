#![warn(missing_docs)]

//! # gcs-core
//!
//! The dynamic gradient clock synchronization algorithm of Kuhn, Locher and
//! Oshman (*Gradient Clock Synchronization in Dynamic Networks*, SPAA 2009,
//! Section 5 / Algorithm 2), plus the baselines it is compared against and
//! executable checkers for the invariants its analysis guarantees.
//!
//! ## The algorithm in one paragraph
//!
//! Every node `u` maintains a logical clock `L_u`, an estimate `Lmax_u` of
//! the maximum logical clock in the network, the set `Υ_u` of believed
//! neighbors and the subset `Γ_u ⊆ Υ_u` of neighbors heard from within the
//! last `ΔT′` subjective time. For each `v ∈ Γ_u` it stores the estimate
//! `L^v_u` of `v`'s clock and the hardware timestamp `C^v_u` of the moment
//! `v` (re)joined `Γ_u`. Nodes exchange `⟨L_u, Lmax_u⟩` every `ΔH`
//! subjective time. After every event, `AdjustClock` raises `L_u` as far as
//! possible subject to: never decrease, never exceed `Lmax_u`, and never
//! exceed `L^v_u + B(H_u − C^v_u)` for any `v ∈ Γ_u`, where the *budget*
//!
//! ```text
//! B(Δt) = max{ B0,  5·G(n) + (1+ρ)τ + B0 − B0/((1+ρ)τ) · Δt }
//! ```
//!
//! starts out larger than the global skew `G(n)` (a fresh edge constrains
//! nothing) and hardens linearly toward `B0` as the edge ages.
//!
//! ## Crate layout
//!
//! * [`params`] — [`AlgoParams`]: `ρ, T, D, ΔH, B0` plus every derived
//!   quantity of the analysis (`ΔT`, `ΔT′`, `τ`, `G(n)`, `W`, the dynamic
//!   local skew function of Corollary 6.13).
//! * [`budget`] — the budget function `B` in isolation (the closed form
//!   behind [`AlgoParams::budget`]).
//! * [`gradient`] — [`GradientNode`], Algorithm 2 as a
//!   [`gcs_sim::Automaton`]. It keeps `Υ_u`, with `Γ_u` flagged inside
//!   it, in one table sorted by node id (`O(degree)` memory per node);
//!   the edge weights of a run live in its [`GradientShared`].
//! * [`baseline`] — [`baseline::MaxSyncNode`] (chase the max estimate
//!   immediately; the Srikanth–Toueg-style comparator) and the
//!   constant-budget variant obtained via
//!   [`BudgetPolicy::Constant`](params::BudgetPolicy) (the static gradient
//!   algorithm of Locher–Wattenhofer applied blindly to a dynamic graph).
//! * [`invariants`] — runtime checkers for Section 3.3's validity
//!   conditions and the skew bounds of Theorems 6.9 and 6.12.
//! * [`predicate`] — the Definition 6.1 blocked predicate and the
//!   `AdjustClock` advance rule as pure functions over plain values,
//!   shared bit-for-bit between [`GradientNode`] and the `gcs-mc`
//!   model checker.
//!
//! # Example
//!
//! The aging budget in isolation: a fresh edge starts above the global
//! skew bound (it constrains nothing), hardens linearly, and floors at
//! `B0` from the settle age onward:
//!
//! ```
//! use gcs_core::budget::{aging_budget, settle_age};
//!
//! let (b0, g, rho, tau) = (20.0, 100.0, 0.01, 5.0);
//! let fresh = aging_budget(0.0, b0, g, rho, tau);
//! assert!(fresh > g, "a brand-new edge must not constrain the clock");
//!
//! let settle = settle_age(b0, g, rho, tau);
//! assert!((aging_budget(settle, b0, g, rho, tau) - b0).abs() < 1e-9);
//! assert_eq!(aging_budget(settle + 1e6, b0, g, rho, tau), b0);
//! ```

pub mod baseline;
pub mod budget;
pub mod gradient;
pub mod invariants;
pub mod params;
pub mod predicate;

pub use gradient::{GradientNode, GradientShared, NeighborState};
pub use invariants::InvariantMonitor;
pub use params::{AlgoParams, BudgetPolicy};
