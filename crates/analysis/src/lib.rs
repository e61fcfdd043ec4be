#![warn(missing_docs)]

//! # gcs-analysis
//!
//! Measurement, statistics, reporting and parallel sweeps for gradient
//! clock synchronization experiments.
//!
//! * [`metrics`] — global and local skew over simulator snapshots (one
//!   `O(n)` snapshot pass per query, `O(1)` per edge).
//! * [`recorder`] — time-series recording of an execution (global skew,
//!   worst local skew, watched-edge skews), with optional invariant
//!   checking.
//! * [`probe`] — event-driven streaming observability: incremental
//!   per-edge skew maintained from the engine's per-instant touched-node
//!   reports, with a certified error bound — no `O(n + m)` snapshots.
//! * [`mem`] — process peak-RSS readers (`/proc/self/status`), so memory
//!   claims in reports are measured rather than asserted.
//! * [`stats`] — summary statistics (min/mean/max/percentiles) and simple
//!   least-squares fits used to check the paper's asymptotic shapes.
//! * [`table`] — aligned text tables for experiment output.
//! * [`csv`] — CSV export of recorded series.
//! * [`sweep`] — [`parallel_map`], the one parallel runner on
//!   `std::thread::scope`, for parameter sweeps and whole scenarios alike
//!   (one independent simulation per task; no shared mutable state —
//!   parallelism lives at the outermost independent loop).
//!
//! # Example
//!
//! A parameter sweep fanned out over scoped threads, summarized with the
//! stats helpers — results always come back in input order:
//!
//! ```
//! use gcs_analysis::{parallel_map, Summary};
//!
//! let ns: Vec<usize> = vec![8, 16, 32, 64];
//! // Stand-in for "run one simulation per n" — any Fn(&I) -> O + Sync.
//! let measured = parallel_map(&ns, |&n| (n as f64).sqrt());
//! assert_eq!(measured.len(), ns.len());
//! assert!(measured.windows(2).all(|w| w[0] < w[1]), "order preserved");
//!
//! let summary = Summary::of(&measured);
//! assert_eq!(summary.max, 8.0);
//! assert!(summary.mean > summary.min && summary.mean < summary.max);
//! ```

pub mod csv;
pub mod mem;
pub mod metrics;
pub mod probe;
pub mod recorder;
pub mod stats;
pub mod sweep;
pub mod table;

pub use mem::{current_rss_bytes, peak_rss_bytes};
pub use metrics::{global_skew, max_local_skew};
pub use probe::SkewStream;
pub use recorder::{Recorder, Sample};
pub use stats::Summary;
pub use sweep::parallel_map;
pub use table::Table;
