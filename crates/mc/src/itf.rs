//! ITF-style JSON traces: the model checker's interchange format.
//!
//! Every violation (and any healthy run on request) exports as a single
//! JSON document in the spirit of the Informal Trace Format: a `#meta`
//! header, a `params` block carrying the *complete* scenario
//! configuration, a `vars` list, and a `states` array of per-instant
//! snapshots. The `params` block makes the trace self-contained: the
//! delays in global send order plus the scheduled churn/fault events are
//! exactly the nondeterminism of a run, so [`crate::replay`] can rebuild
//! the whole execution inside the real engine and check it against the
//! recorded `states` bit for bit.
//!
//! Traces are built and read as [`crate::json`] trees. All `f64`s are
//! written with Rust's shortest round-tripping representation (`{:?}`),
//! which `str::parse::<f64>()` recovers exactly — the write → parse →
//! write fixpoint is part of the test suite.
//!
//! Traces record the paper's model constants and `B0` explicitly;
//! replay reconstructs `AlgoParams` with the default aging budget policy
//! (the policy the engine-facing algorithm runs). Traces exported from
//! baseline-policy mutants are for human inspection, not engine replay.

use crate::json::Json;
use crate::json_fields;
use crate::model::{InstantState, Scenario, SendRecord};

/// One scheduled topology change in a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceTopology {
    /// Event time.
    pub time: f64,
    /// `true` = add, `false` = remove.
    pub add: bool,
    /// Lower endpoint index.
    pub lo: u32,
    /// Higher endpoint index.
    pub hi: u32,
}

/// One scheduled fault in a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceFault {
    /// Event time.
    pub time: f64,
    /// `true` = restart, `false` = crash.
    pub restart: bool,
    /// Target node index.
    pub node: u32,
}

/// One resolved live-edge send delay, in global send order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceDelay {
    /// Sender index.
    pub from: u32,
    /// Receiver index.
    pub to: u32,
    /// The chosen delay in `[0, T]`.
    pub delay: f64,
}

/// A complete, self-contained, replayable model-checker trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Scenario name.
    pub name: String,
    /// Node count.
    pub n: usize,
    /// Drift bound `ρ`.
    pub rho: f64,
    /// Message delay bound `T`.
    pub t: f64,
    /// Discovery bound `D`.
    pub d: f64,
    /// Resend interval `ΔH`.
    pub delta_h: f64,
    /// Budget floor `B0`.
    pub b0: f64,
    /// Per-node constant hardware rates.
    pub rates: Vec<f64>,
    /// Initial edges as `(lo, hi)` index pairs, sorted.
    pub initial_edges: Vec<(u32, u32)>,
    /// Scheduled churn.
    pub topology: Vec<TraceTopology>,
    /// Scheduled faults.
    pub faults: Vec<TraceFault>,
    /// Every live-edge send's resolved delay, in global send order.
    pub delays: Vec<TraceDelay>,
    /// Run horizon.
    pub horizon: f64,
    /// Per-instant `(time, L, Lmax)` snapshots, strictly increasing time.
    pub states: Vec<InstantState>,
    /// The violation message, absent for healthy traces.
    pub violation: Option<String>,
}

impl Trace {
    /// Packages a finished run: the scenario configuration, the sends the
    /// decider resolved, and the snapshots the observer collected.
    pub fn build(
        sc: &Scenario,
        sends: &[SendRecord],
        states: Vec<InstantState>,
        violation: Option<String>,
    ) -> Self {
        Trace {
            name: sc.name.clone(),
            n: sc.algo.n,
            rho: sc.algo.model.rho,
            t: sc.algo.model.t,
            d: sc.algo.model.d,
            delta_h: sc.algo.delta_h,
            b0: sc.algo.b0,
            rates: sc.rates.clone(),
            initial_edges: sc
                .initial_edges
                .iter()
                .map(|e| (e.lo().index() as u32, e.hi().index() as u32))
                .collect(),
            topology: sc
                .topology
                .iter()
                .map(|ev| TraceTopology {
                    time: ev.time.seconds(),
                    add: ev.kind == gcs_net::TopologyEventKind::Add,
                    lo: ev.edge.lo().index() as u32,
                    hi: ev.edge.hi().index() as u32,
                })
                .collect(),
            faults: sc
                .faults
                .iter()
                .map(|ev| {
                    let (restart, node) = match ev.kind {
                        gcs_sim::FaultKind::Crash { node } => (false, node),
                        gcs_sim::FaultKind::Restart { node } => (true, node),
                        _ => unreachable!("validated scenarios carry crash/restart only"),
                    };
                    TraceFault {
                        time: ev.time.seconds(),
                        restart,
                        node: node.index() as u32,
                    }
                })
                .collect(),
            delays: sends
                .iter()
                .map(|s| TraceDelay {
                    from: s.from.index() as u32,
                    to: s.to.index() as u32,
                    delay: s.delay,
                })
                .collect(),
            horizon: sc.horizon,
            states,
            violation,
        }
    }

    /// Serializes to ITF-style JSON: stable field order, the top two
    /// levels broken over lines with a two-space indent, everything
    /// deeper inline (see [`Json::write`]).
    pub fn to_json(&self) -> String {
        let f64s = |vs: &[f64]| vs.iter().map(|&v| Json::from(v)).collect::<Json>();
        let params = Json::obj([
            ("name", self.name.as_str().into()),
            ("n", self.n.into()),
            ("rho", self.rho.into()),
            ("t", self.t.into()),
            ("d", self.d.into()),
            ("delta_h", self.delta_h.into()),
            ("b0", self.b0.into()),
            ("horizon", self.horizon.into()),
            ("rates", f64s(&self.rates)),
            (
                "initial_edges",
                self.initial_edges
                    .iter()
                    .map(|&(lo, hi)| Json::from_iter([lo.into(), hi.into()]))
                    .collect(),
            ),
            (
                "topology",
                self.topology
                    .iter()
                    .map(|&ev| Json::obj(json_fields!(TraceTopology { time, add, lo, hi } = ev)))
                    .collect(),
            ),
            (
                "faults",
                self.faults
                    .iter()
                    .map(|&ev| {
                        Json::obj(json_fields!(
                            TraceFault {
                                time,
                                restart,
                                node
                            } = ev
                        ))
                    })
                    .collect(),
            ),
            (
                "delays",
                self.delays
                    .iter()
                    .map(|&d| Json::obj(json_fields!(TraceDelay { from, to, delay } = d)))
                    .collect(),
            ),
        ]);
        let states = self.states.iter().enumerate().map(|(i, st)| {
            Json::obj([
                ("#meta", Json::obj([("index", i.into())])),
                ("time", st.time.into()),
                ("logical", f64s(&st.logical)),
                ("lmax", f64s(&st.lmax)),
            ])
        });
        let meta = Json::obj([
            ("format", "ITF".into()),
            ("source", "gcs-mc".into()),
            (
                "description",
                format!("model-checker trace of scenario {}", self.name).into(),
            ),
        ]);
        let vars = ["time", "logical", "lmax"].map(Json::from);
        let violation = self.violation.as_deref().map(|v| ("violation", v.into()));
        Json::obj(
            [
                ("#meta", meta),
                ("params", params),
                ("vars", Json::from_iter(vars)),
                ("states", states.collect()),
            ]
            .into_iter()
            .chain(violation),
        )
        .write(2)
    }

    /// Parses a trace previously produced by [`Trace::to_json`] (or any
    /// structurally equivalent JSON document).
    pub fn from_json(text: &str) -> Result<Trace, String> {
        let value = Json::parse(text)?;
        let root = value.as_obj("trace root")?;
        let params = root.field("params")?.as_obj("params")?;
        let index = |v: &Json, what: &str| {
            u32::try_from(v.as_u64(what)?).map_err(|_| format!("{what}: index out of range"))
        };
        let states = root
            .field("states")?
            .as_arr("states")?
            .iter()
            .map(|st| {
                let st = st.as_obj("state")?;
                Ok(InstantState {
                    time: st.field("time")?.as_f64("time")?,
                    logical: st.field("logical")?.as_f64_array("logical")?,
                    lmax: st.field("lmax")?.as_f64_array("lmax")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Trace {
            name: params.field("name")?.as_str("name")?.to_string(),
            n: params.field("n")?.as_u64("n")? as usize,
            rho: params.field("rho")?.as_f64("rho")?,
            t: params.field("t")?.as_f64("t")?,
            d: params.field("d")?.as_f64("d")?,
            delta_h: params.field("delta_h")?.as_f64("delta_h")?,
            b0: params.field("b0")?.as_f64("b0")?,
            rates: params.field("rates")?.as_f64_array("rates")?,
            initial_edges: params
                .field("initial_edges")?
                .as_arr("initial_edges")?
                .iter()
                .map(|pair| match pair.as_arr("edge pair")? {
                    [lo, hi] => Ok((index(lo, "edge lo")?, index(hi, "edge hi")?)),
                    _ => Err("edge pair must have two endpoints".into()),
                })
                .collect::<Result<Vec<_>, String>>()?,
            topology: params
                .field("topology")?
                .as_arr("topology")?
                .iter()
                .map(|ev| {
                    let ev = ev.as_obj("topology event")?;
                    Ok(TraceTopology {
                        time: ev.field("time")?.as_f64("time")?,
                        add: ev.field("add")?.as_bool("add")?,
                        lo: index(ev.field("lo")?, "lo")?,
                        hi: index(ev.field("hi")?, "hi")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            faults: params
                .field("faults")?
                .as_arr("faults")?
                .iter()
                .map(|ev| {
                    let ev = ev.as_obj("fault event")?;
                    Ok(TraceFault {
                        time: ev.field("time")?.as_f64("time")?,
                        restart: ev.field("restart")?.as_bool("restart")?,
                        node: index(ev.field("node")?, "node")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            delays: params
                .field("delays")?
                .as_arr("delays")?
                .iter()
                .map(|d| {
                    let d = d.as_obj("delay record")?;
                    Ok(TraceDelay {
                        from: index(d.field("from")?, "from")?,
                        to: index(d.field("to")?, "to")?,
                        delay: d.field("delay")?.as_f64("delay")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            horizon: params.field("horizon")?.as_f64("horizon")?,
            states,
            violation: root
                .get("violation")
                .map(|v| v.as_str("violation").map(str::to_string))
                .transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            name: "sample \"quoted\" — unicode".into(),
            n: 3,
            rho: 0.05,
            t: 1.0,
            d: 2.0,
            delta_h: 0.5,
            b0: 7.0,
            rates: vec![1.05, 1.0, 0.95],
            initial_edges: vec![(0, 1), (1, 2)],
            topology: vec![TraceTopology {
                time: 0.7,
                add: false,
                lo: 0,
                hi: 1,
            }],
            faults: vec![TraceFault {
                time: 0.6,
                restart: false,
                node: 0,
            }],
            delays: vec![
                TraceDelay {
                    from: 0,
                    to: 1,
                    delay: 0.0,
                },
                TraceDelay {
                    from: 1,
                    to: 0,
                    delay: 1.0,
                },
            ],
            horizon: 1.3,
            states: vec![
                InstantState {
                    time: 0.0,
                    logical: vec![0.0, 0.0, 0.0],
                    lmax: vec![0.0, 0.0, 0.0],
                },
                InstantState {
                    time: 0.5250000000000001,
                    logical: vec![0.55125e0, 0.525, 0.49875],
                    lmax: vec![0.55125, 0.525, 0.49875],
                },
            ],
            violation: Some("t=0.5 node=0: Property 6.3 violated".into()),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let trace = sample();
        let json = trace.to_json();
        let back = Trace::from_json(&json).expect("parse");
        assert_eq!(trace, back);
        assert_eq!(json, back.to_json(), "write → parse → write fixpoint");
    }

    #[test]
    fn healthy_trace_omits_violation() {
        let mut trace = sample();
        trace.violation = None;
        let json = trace.to_json();
        assert!(!json.contains("violation"));
        assert_eq!(Trace::from_json(&json).unwrap(), trace);
    }

    #[test]
    fn f64_bits_survive_the_round_trip() {
        let mut trace = sample();
        // Adversarial values: subnormal-adjacent, long mantissas, exact
        // binary fractions.
        trace.rates = vec![1.0 / 3.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1e-300];
        let back = Trace::from_json(&trace.to_json()).unwrap();
        for (a, b) in trace.rates.iter().zip(&back.rates) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Trace::from_json("{").is_err());
        assert!(Trace::from_json("[]").is_err());
        assert!(Trace::from_json("{\"params\": 3}").is_err());
        let valid = sample().to_json();
        assert!(Trace::from_json(&valid[..valid.len() - 3]).is_err());
    }
}
