//! Bounded exhaustive exploration: every interleaving of message-delay
//! choices, composed with the scenario's scheduled churn and faults.
//!
//! # How the state space is enumerated
//!
//! The only nondeterminism in a validated [`Scenario`] is the delay of
//! each live-edge send, drawn from the scenario's quantized
//! `delay_choices ⊆ [0, T]` (drift is fixed per scenario — the suites
//! quantize it by enumerating *rate vectors* as separate scenarios, per
//! the `[1−ρ, 1+ρ]` bound; churn and crash/restart are scheduled, so
//! their interleaving with protocol events is fully determined by the
//! engine's `(time, class, seq)` order once delays are fixed). A run is
//! therefore a path in a decision tree whose branching factor is
//! `delay_choices.len()`.
//!
//! The explorer walks that tree depth first. A trail is a forced prefix
//! of choice indices; its run follows the trail, defaults to choice 0
//! past it, and records every decision. After each run, the untaken
//! alternatives at every decision *at or past the trail's end* are pushed
//! as new trails (alternatives before the trail's end were already
//! scheduled when a shorter prefix of this path first ran).
//!
//! # Checkpointed resumption
//!
//! A trail does not re-execute its prefix from time 0. A *boundary* is
//! the point between two instants where the run callback checks, encodes
//! and records the state; the time-0 state of [`Model::new`] is the root
//! snapshot. A trail that branches at decision `j` resumes from the
//! latest boundary of the run that pushed it with at most `j` decisions
//! made — the start of the instant in which decision `j` was drawn — and
//! re-executes only the rest of that instant.
//!
//! Resuming is sound because a run is a deterministic function of its
//! decisions. A replay from time 0 along the same forced prefix would
//! pass through exactly the states the snapshotting run passed through,
//! with the same oracle history, and each of those states is already in
//! the seen set: it would neither grow the set nor stop the run, which is
//! still inside its forced prefix there. So a resumed run inserts,
//! checks and prunes exactly what the replay would. Its first callback
//! lands on the snapshot's own state, which the snapshotting run already
//! checked and inserted, so it is skipped. The root is the exception: no
//! callback ever saw the time-0 state.
//!
//! Only *free* decisions — those past the trail's forced prefix — get
//! their untaken siblings scheduled, so a boundary is resumed from only
//! if a free decision is drawn after it and before the next boundary the
//! run continues past (every later decision has a later latest
//! boundary). A run therefore copies each boundary it continues past
//! into one reused buffer, and at the next callback keeps the copy as a
//! snapshot only if the decision count has grown past both the copy's
//! and the trail's forced length; otherwise the next boundary overwrites
//! it. The snapshots kept, the trails pushed and their order are those
//! of copying every boundary. The run's own model is refilled from each
//! trail's snapshot in place.
//!
//! Snapshots are shared through `Rc` by the trails that branch in the
//! instant following them. Once the last of those trails has run, the
//! snapshot's buffers go to a free list, and the next boundary copy
//! refills them with `clone_from` instead of allocating a whole model:
//! live and free snapshots together never outnumber the most snapshots
//! live at once, which the trails on the stack bound. A copy keeps an
//! `Arc` the two sides already share — the model's fixed scenario data,
//! each node's shared parameters — so it touches no reference count. A
//! finished run's forced prefix is reused the same way, as the buffer of
//! a trail pushed next.
//!
//! # Seen-state pruning
//!
//! After each instant the model's canonical encoding ([`Model::encode`],
//! one pass per table) is digested into a 128-bit key and inserted into
//! a seen set. The key is two 64-bit lanes, each of which absorbs every
//! word; four independent chains absorb two words per folded multiply
//! (see `digest`). The lanes are already uniform, so the seen set hashes
//! a key to their XOR instead of re-hashing it. A run may stop early at
//! a previously-seen state —
//! different delay paths frequently converge (e.g. once every in-flight
//! message is delivered and the queue shape matches) — but **only once
//! it has made at least one free decision** (`decisions ≥ forced.len()`):
//! up to that point the run is merely replaying a prefix whose
//! alternatives still need scheduling from *this* trail's extensions.
//! Pruning at a seen state is sound because the encoding captures the
//! complete dynamic state (nodes, timers, peers, edges, cursors, pending
//! queue): identical encodings have identical futures given identical
//! remaining decisions, and those futures were enumerated from the first
//! visit. On every `n = 2` scenario a test enumerates the unpruned tree
//! and finds as many distinct encodings as distinct digests and explored
//! states.
//!
//! Every instant of every run is also fed to the [`Oracle`]; the first
//! violation aborts the search and is packaged as an ITF trace.

use crate::itf::Trace;
use crate::model::{DelayDecider, Model, ModelNode, Scenario};
use crate::oracle::Oracle;
use gcs_core::GradientNode;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::time::Instant;

/// Result of exploring one scenario.
#[derive(Clone, Debug)]
pub struct Report {
    /// The scenario's name.
    pub scenario: String,
    /// Complete runs (trails) executed.
    pub runs: usize,
    /// Distinct canonical states visited.
    pub states: usize,
    /// Maximum number of decisions in any single run.
    pub max_depth: usize,
    /// The first invariant violation, if any, with its replayable trace.
    pub violation: Option<(Trace, String)>,
}

/// wyhash's four secrets: the digest's chain seeds and word masks.
const SECRET: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// wyhash's folded multiply: the 128-bit product's halves XORed.
fn mum(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The 128-bit seen-set digest of `words`: two 64-bit lanes of two chains
/// each. Words go in blocks of four, the last one zero-padded, and every
/// folded multiply absorbs two words, one into each factor. Lane A's
/// chains take words `(0, 1)` and `(2, 3)` of a block, lane B's take
/// `(0, 2)` and `(1, 3)`: each lane absorbs every word, the lanes pair
/// them differently, and the four chains run independently. Each lane
/// folds its two chains and the word count at the end.
fn digest(words: &[u64]) -> (u64, u64) {
    let mut c = SECRET;
    let mut absorb = |w: &[u64]| {
        c = [
            mum(c[0] ^ w[0], SECRET[1] ^ w[1]),
            mum(c[1] ^ w[2], SECRET[2] ^ w[3]),
            mum(c[2] ^ w[0], SECRET[3] ^ w[2]),
            mum(c[3] ^ w[1], SECRET[0] ^ w[3]),
        ];
    };
    let mut blocks = words.chunks_exact(4);
    blocks.by_ref().for_each(&mut absorb);
    let rest = blocks.remainder();
    if !rest.is_empty() {
        let mut last = [0; 4];
        last[..rest.len()].copy_from_slice(rest);
        absorb(&last);
    }
    let len = words.len() as u64;
    (
        mum(c[0] ^ len, c[1] ^ SECRET[0]),
        mum(c[2] ^ len, c[3] ^ SECRET[1]),
    )
}

/// The seen set's hasher. Its keys are [`digest`]s, whose lanes are
/// already uniform, so it hashes a key to the XOR of its lanes instead
/// of re-hashing them through SipHash. The digests come from model
/// states, not from outside input, so nothing crafts colliding keys.
#[derive(Default)]
struct LaneHasher(u64);

impl Hasher for LaneHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the seen set hashes digest lanes only")
    }

    fn write_u64(&mut self, lane: u64) {
        self.0 ^= lane;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The digests of every state inserted so far.
type SeenSet = HashSet<(u64, u64), BuildHasherDefault<LaneHasher>>;

/// A state trails resume from (see the module docs).
struct Snapshot<N: ModelNode> {
    model: Model<N>,
    oracle: Oracle,
    /// The decisions that led here, `(arity, chosen)` each.
    record: Vec<(usize, usize)>,
    /// Whether a run callback already checked and inserted this state:
    /// true for every snapshot but the root.
    checked: bool,
}

/// Exhaustively explores `sc`.
///
/// `make` builds the nodes of the time-0 state, once per node; it is
/// called again only to export a violation's trace. Every other run
/// resumes from a copy of a snapshot.
///
/// `max_runs` is a safety valve against mis-sized scenarios: the search
/// panics once it would execute more runs than that, rather than burning
/// CI minutes silently (a correctly-sized suite stays well under it).
pub fn explore<N: ModelNode>(
    sc: &Scenario,
    mut make: impl FnMut(usize) -> N,
    max_runs: usize,
) -> Report {
    sc.validate();
    let root = Snapshot {
        model: Model::new(sc, &mut make),
        oracle: Oracle::new(sc.algo.n),
        record: Vec::new(),
        checked: false,
    };
    let mut seen = SeenSet::default();
    let mut report = Report {
        scenario: sc.name.clone(),
        runs: 0,
        states: 0,
        max_depth: 0,
        violation: None,
    };
    let mut scratch = Vec::new();
    // The run's own state and decision record, refilled from each
    // trail's snapshot.
    let mut model = root.model.clone();
    let mut oracle = root.oracle.clone();
    let mut record = Vec::new();
    // A copy of the last boundary the current run continued past, and
    // its decision count while that copy is current. The copy sits in an
    // unshared `Rc`, so keeping it as a snapshot allocates nothing.
    let mut spare: Option<Rc<Snapshot<N>>> = None;
    let mut held: Option<usize> = None;
    // `(decisions made, copy)` at every boundary of the current run that
    // a trail resumes from, in run order.
    let mut taken: Vec<(usize, Rc<Snapshot<N>>)> = Vec::new();
    // Snapshots no pending trail resumes from, whose buffers the next
    // boundary copies reuse.
    let mut free: Vec<Rc<Snapshot<N>>> = Vec::new();
    // Forced prefixes of finished runs, whose buffers the next pushed
    // trails reuse.
    let mut spent: Vec<Vec<usize>> = Vec::new();
    // Pending trails: the snapshot each resumes from, and its forced
    // choices from decision 0.
    let mut stack: Vec<(Rc<Snapshot<N>>, Vec<usize>)> = vec![(Rc::new(root), Vec::new())];
    while let Some((mut from, forced)) = stack.pop() {
        report.runs += 1;
        assert!(
            report.runs <= max_runs,
            "scenario {} exceeded {} runs — shrink its horizon or choices",
            sc.name,
            max_runs
        );
        let forced_len = forced.len();
        model.clone_from(&from.model);
        oracle.clone_from(&from.oracle);
        record.clone_from(&from.record);
        let mut decider = DelayDecider::Trail { forced, record };
        let mut skip = from.checked;
        model.run(sc.horizon, &mut decider, |m, decisions| {
            if std::mem::take(&mut skip) {
                return true;
            }
            // The held boundary is a resumption point iff a free decision
            // was drawn after it (see module docs).
            if let Some(d) = held.take().filter(|&d| decisions > d.max(forced_len)) {
                taken.push((d, spare.take().expect("a held boundary has a copy")));
            }
            if !oracle.check(m) {
                return false;
            }
            scratch.clear();
            m.encode(&mut scratch);
            let fresh = seen.insert(digest(&scratch));
            // Prune only once this run has decided something the trail
            // did not force — see module docs for the soundness argument.
            let go_on = fresh || decisions < forced_len;
            if go_on {
                let copy = spare.get_or_insert_with(|| {
                    free.pop().unwrap_or_else(|| {
                        Rc::new(Snapshot {
                            model: m.clone(),
                            oracle: oracle.clone(),
                            record: Vec::new(),
                            checked: true,
                        })
                    })
                });
                let copy = Rc::get_mut(copy).expect("a boundary copy is unshared");
                copy.model.clone_from(m);
                copy.oracle.clone_from(&oracle);
                held = Some(decisions);
            }
            go_on
        });
        held = None;
        let DelayDecider::Trail {
            forced,
            record: done,
        } = decider
        else {
            unreachable!("explore uses trail deciders");
        };
        spent.push(forced);
        record = done;
        report.max_depth = report.max_depth.max(record.len());
        if let Some(v) = oracle.violation() {
            // Re-run the violating path from time 0, collecting the
            // per-instant states for the exported trace.
            let choices: Vec<usize> = record.iter().map(|&(_, c)| c).collect();
            let (trace, _) = trace_of_trail(sc, &mut make, choices);
            report.violation = Some((trace, v.to_string()));
            report.states = seen.len();
            return report;
        }
        // Schedule the untaken siblings of every free decision, each
        // resuming from the start of the instant that drew it: the kept
        // boundary with the most decisions `<= j` (kept boundaries have
        // strictly growing decision counts, all but the first above
        // `forced_len`, so it is the next one once `j` reaches it).
        let mut boundaries = taken.drain(..).peekable();
        for (j, &(arity, chosen)) in record.iter().enumerate().skip(forced_len) {
            debug_assert_eq!(chosen, 0, "free decisions default to choice 0");
            if let Some((d, mut kept)) = boundaries.next_if(|&(d, _)| d <= j) {
                let snapshot = Rc::get_mut(&mut kept).expect("a kept copy is unshared");
                snapshot.record.clear();
                snapshot.record.extend_from_slice(&record[..d]);
                snapshot.checked = true;
                release(std::mem::replace(&mut from, kept), &mut free);
            }
            for alt in 1..arity {
                let mut trail = spent.pop().unwrap_or_default();
                trail.clear();
                trail.extend(record[..j].iter().map(|&(_, c)| c));
                trail.push(alt);
                stack.push((Rc::clone(&from), trail));
            }
        }
        release(from, &mut free);
    }
    report.states = seen.len();
    report
}

/// Returns `snapshot` to the free list once no pending trail resumes
/// from it.
fn release<N: ModelNode>(snapshot: Rc<Snapshot<N>>, free: &mut Vec<Rc<Snapshot<N>>>) {
    if Rc::strong_count(&snapshot) == 1 {
        free.push(snapshot);
    }
}

/// Replays one trail to completion (no pruning) and exports its trace —
/// used to produce *healthy* traces for the replay round-trip tests.
pub fn trace_of_trail<N: ModelNode>(
    sc: &Scenario,
    mut make: impl FnMut(usize) -> N,
    trail: Vec<usize>,
) -> (Trace, Oracle) {
    sc.validate();
    let mut model = Model::new(sc, &mut make);
    let mut decider = DelayDecider::trail(trail);
    let mut oracle = Oracle::new(sc.algo.n);
    let mut states = Vec::new();
    model.run(sc.horizon, &mut decider, |m, _| {
        oracle.check(m);
        states.push(m.snapshot());
        true
    });
    let violation = oracle.violation().map(|v| v.to_string());
    (Trace::build(sc, model.sends(), states, violation), oracle)
}

/// The CI scenario suite at a given `n ∈ 2..=4`.
///
/// Each suite fixes `ρ = 0.05, T = 1, D = 2, ΔH = 0.5` and enumerates
/// rate vectors over the drift quantization `{1−ρ, 1, 1+ρ}` (the
/// boundary-and-midpoint choices an adversary controls under the paper's
/// model), crossed with churn and crash/restart variants within the
/// scenario bounds. Horizons are sized so the full `n = 3` suite
/// explores in well under the 60 s CI budget.
pub fn suite(n: usize) -> Vec<Scenario> {
    use gcs_core::AlgoParams;
    use gcs_net::{node, Edge, TopologyEvent};
    use gcs_sim::{FaultEvent, ModelParams};

    let model = ModelParams::new(0.05, 1.0, 2.0);
    let algo = AlgoParams::with_minimal_b0(model, n, 0.5);
    let lo = 1.0 - model.rho;
    let hi = 1.0 + model.rho;
    let delays = vec![0.0, model.t];

    let path: Vec<Edge> = (0..n - 1)
        .map(|i| Edge::new(node(i), node(i + 1)))
        .collect();
    // Horizon per n: sized so every scenario's decision count (≈ one per
    // live-edge send) keeps 2^decisions re-executions inside the CI
    // budget, while still covering the initial discovery exchange plus at
    // least one full tick round per node.
    let horizon = match n {
        2 => 1.6,
        3 => 1.3,
        _ => 1.0,
    };
    let mut scenarios = Vec::new();
    let mut push = |name: String,
                    rates: Vec<f64>,
                    initial: Vec<Edge>,
                    topology: Vec<TopologyEvent>,
                    faults: Vec<FaultEvent>,
                    horizon: f64| {
        scenarios.push(Scenario {
            name,
            algo,
            rates,
            initial_edges: initial,
            topology,
            faults,
            delay_choices: delays.clone(),
            horizon,
        });
    };

    // Rate quantization: every vector over {1−ρ, 1, 1+ρ} at n = 2; the
    // adversarially extreme vectors (max pairwise drift plus midpoint
    // mixes) at n = 3, 4 to keep the product bounded.
    let rate_vectors: Vec<Vec<f64>> = match n {
        2 => {
            let q = [lo, 1.0, hi];
            let mut v = Vec::new();
            for &a in &q {
                for &b in &q {
                    v.push(vec![a, b]);
                }
            }
            v
        }
        3 => vec![
            vec![hi, 1.0, lo],
            vec![lo, hi, lo],
            vec![hi, lo, hi],
            vec![1.0, 1.0, 1.0],
        ],
        4 => vec![vec![hi, 1.0, 1.0, lo], vec![hi, lo, hi, lo]],
        _ => panic!("suite covers n = 2..=4"),
    };

    for (i, rates) in rate_vectors.iter().enumerate() {
        push(
            format!("n{n}-static-r{i}"),
            rates.clone(),
            path.clone(),
            Vec::new(),
            Vec::new(),
            horizon,
        );
    }

    // Churn: drop then re-add the first path edge around the first tick
    // exchanges (exercises epoch mismatch drops, stale discovery
    // versions, and re-add rediscovery).
    let churn_edge = path[0];
    push(
        format!("n{n}-churn"),
        match n {
            2 => vec![hi, lo],
            3 => vec![hi, 1.0, lo],
            _ => vec![hi, 1.0, 1.0, lo],
        },
        path.clone(),
        vec![
            TopologyEvent::remove_at(0.7, churn_edge),
            TopologyEvent::add_at(1.0, churn_edge),
        ],
        Vec::new(),
        horizon,
    );

    // Crash/restart of the fastest node mid-run (exercises timer
    // cancellation, state loss, restart rediscovery).
    push(
        format!("n{n}-crash-restart"),
        match n {
            2 => vec![hi, lo],
            3 => vec![hi, 1.0, lo],
            _ => vec![hi, 1.0, 1.0, lo],
        },
        path.clone(),
        Vec::new(),
        vec![
            FaultEvent::crash(0.6, node(0)),
            FaultEvent::restart(0.9, node(0)),
        ],
        horizon,
    );

    scenarios
}

/// One CI suite explored over the production [`GradientNode`]: every
/// scenario's report and their totals.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// The suite's node count.
    pub n: usize,
    /// One report per scenario, in [`suite`] order.
    pub reports: Vec<Report>,
    /// Distinct states, summed over the scenarios.
    pub states: usize,
    /// Executed runs, summed over the scenarios.
    pub runs: usize,
    /// The largest per-scenario maximum depth.
    pub max_depth: usize,
    /// Host wall time of the whole suite, in seconds.
    pub wall_s: f64,
}

impl SuiteReport {
    /// Scenarios whose exploration found a violation.
    pub fn violations(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.violation.is_some())
            .count()
    }
}

/// Explores every scenario of [`suite`]`(n)` with the production node,
/// under a run cap no CI suite comes near.
pub fn explore_suite(n: usize) -> SuiteReport {
    let start = Instant::now();
    let reports: Vec<Report> = suite(n)
        .iter()
        .map(|sc| explore(sc, |_| GradientNode::new(sc.algo), 2_000_000))
        .collect();
    SuiteReport {
        n,
        states: reports.iter().map(|r| r.states).sum(),
        runs: reports.iter().map(|r| r.runs).sum(),
        max_depth: reports.iter().map(|r| r.max_depth).max().unwrap_or(0),
        reports,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n2_static_scenario_explores_clean() {
        let suite = suite(2);
        let sc = &suite[0];
        let report = explore(sc, |_| GradientNode::new(sc.algo), 1_000_000);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.runs > 1, "branching must occur");
        assert!(report.states > 0);
    }

    #[test]
    fn exploration_visits_both_alternatives_of_the_first_decision() {
        let suite = suite(2);
        let sc = &suite[0];
        // With 2 delay choices the run count is at least 1 + #free
        // decisions of the root run.
        let report = explore(sc, |_| GradientNode::new(sc.algo), 1_000_000);
        assert!(report.max_depth >= 2);
        assert!(report.runs >= report.max_depth);
    }

    #[test]
    fn mutant_is_caught_by_exploration_too() {
        use crate::mutant::{MutantNode, Mutation};
        let sc = crate::mutant::smoke_scenario(Mutation::LmaxOverwrite);
        let report = explore(
            &sc,
            |_| MutantNode::new(sc.algo, Mutation::LmaxOverwrite),
            1_000_000,
        );
        let (_, msg) = report.violation.expect("exploration must catch the mutant");
        assert!(msg.contains("Property 6.3"), "{msg}");
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// FNV-1a-64 of `bytes`: the recorded trace-JSON hashes below.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(FNV_OFFSET, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        })
    }

    /// Runs every leaf of `sc`'s decision tree from time 0, unpruned, and
    /// returns the exact encodings of every state a run callback sees, and
    /// the leaf count.
    fn reachable_encodings(sc: &Scenario) -> (HashSet<Vec<u64>>, usize) {
        let make = |_| GradientNode::new(sc.algo);
        let mut encodings = HashSet::new();
        let mut leaves = 0;
        let mut trails = vec![Vec::new()];
        while let Some(forced) = trails.pop() {
            leaves += 1;
            let forced_len = forced.len();
            let mut decider = DelayDecider::trail(forced);
            Model::new(sc, make).run(sc.horizon, &mut decider, |m, _| {
                let mut words = Vec::new();
                m.encode(&mut words);
                encodings.insert(words);
                true
            });
            let DelayDecider::Trail { record, .. } = decider else {
                unreachable!("a trail decider");
            };
            for (j, &(arity, _)) in record.iter().enumerate().skip(forced_len) {
                for alt in 1..arity {
                    let mut trail: Vec<usize> = record[..j].iter().map(|&(_, c)| c).collect();
                    trail.push(alt);
                    trails.push(trail);
                }
            }
        }
        (encodings, leaves)
    }

    /// On every n = 2 scenario, the distinct exact encodings of the
    /// unpruned tree, their distinct digests and the explorer's state
    /// count agree: the digest has no collision there, and pruning plus
    /// checkpointed resumption visit exactly the reachable states.
    #[test]
    fn digest_and_pruned_exploration_are_exact_on_the_n2_suite() {
        let mut leaves = 0;
        for sc in suite(2) {
            let (encodings, sc_leaves) = reachable_encodings(&sc);
            leaves += sc_leaves;
            let digests: HashSet<(u64, u64)> = encodings.iter().map(|w| digest(w)).collect();
            let explored = explore(&sc, |_| GradientNode::new(sc.algo), 1_000_000).states;
            assert_eq!(
                (encodings.len(), digests.len()),
                (explored, explored),
                "{}",
                sc.name
            );
        }
        assert!(
            leaves > 2_000,
            "the unpruned n = 2 trees have {leaves} leaves"
        );
    }

    /// Each 64-bit lane alone tells every reachable `n = 2` encoding
    /// apart, and flipping any one bit of an encoding of any length mod 4
    /// changes both lanes: neither lane skips a word, the zero-padded
    /// remainder words included.
    #[test]
    fn each_digest_lane_absorbs_every_word() {
        let mut encodings: Vec<Vec<u64>> = suite(2)
            .iter()
            .flat_map(|sc| reachable_encodings(sc).0)
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        let lane_a: HashSet<u64> = encodings.iter().map(|w| digest(w).0).collect();
        let lane_b: HashSet<u64> = encodings.iter().map(|w| digest(w).1).collect();
        assert_eq!(
            (lane_a.len(), lane_b.len()),
            (encodings.len(), encodings.len())
        );
        // The longest encoding and its cuts by one to three words cover
        // every length mod 4.
        encodings.sort();
        let longest = encodings
            .iter()
            .max_by_key(|w| w.len())
            .expect("n = 2 reaches states");
        for cut in 0..4 {
            let mut words = longest[..longest.len() - cut].to_vec();
            let (a, b) = digest(&words);
            for i in 0..words.len() {
                for bit in 0..64 {
                    words[i] ^= 1 << bit;
                    let (flipped_a, flipped_b) = digest(&words);
                    words[i] ^= 1 << bit;
                    assert!(
                        flipped_a != a && flipped_b != b,
                        "flipping bit {bit} of word {i} of {} left a lane unchanged",
                        words.len()
                    );
                }
            }
        }
    }

    #[test]
    fn mutant_explorations_stop_at_the_recorded_violations() {
        use crate::mutant::{MutantNode, Mutation};
        // (scenario, runs, states, max depth, trace JSON bytes, their
        // FNV-1a-64). r1 violates in the root run, the others in resumed
        // runs; `states` counts every state inserted before the violation.
        let recorded = [
            ("n2-static-r0", 17, 24, 8, 1555, 0xdefb_35cf_d2e9_9efd),
            ("n2-static-r1", 1, 2, 4, 1782, 0xd589_914c_39c6_af94),
            ("n3-static-r3", 257, 275, 12, 1262, 0x773b_f7f9_b425_35f7),
        ];
        for (name, runs, states, max_depth, json_len, json_fnv) in recorded {
            let sc = suite(2)
                .into_iter()
                .chain(suite(3))
                .find(|sc| sc.name == name)
                .expect("a suite scenario");
            let report = explore(
                &sc,
                |_| MutantNode::new(sc.algo, Mutation::LmaxOverwrite),
                1_000_000,
            );
            assert_eq!(
                (report.runs, report.states, report.max_depth),
                (runs, states, max_depth),
                "{name}"
            );
            let (trace, msg) = report.violation.expect("exploration must catch the mutant");
            assert!(msg.contains("Property 6.3"), "{name}: {msg}");
            let json = trace.to_json();
            assert_eq!(
                (json.len(), fnv1a(json.bytes())),
                (json_len, json_fnv),
                "{name}"
            );
        }
    }
}
