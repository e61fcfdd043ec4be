//! Recorded reference fingerprints (`reference.txt` in this directory).
//!
//! Each line is `<workload> <seed> <five fingerprint fields>`, as the
//! benchmark prints them on its `fingerprint:` line. A seed of `*` means
//! the workload's outcome does not depend on the seed and the line holds
//! for every seed.

use crate::workload::{Fingerprint, Workload};

const RECORDED: &str = include_str!("../reference.txt");

/// The recorded fingerprint of `workload` at `seed`, if any.
pub fn lookup(workload: Workload, seed: u64) -> Option<Fingerprint> {
    let seed = seed.to_string();
    let mut any_seed = None;
    for line in RECORDED.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, s, a, b, c, d, h] = fields[..] else {
            panic!("malformed reference line: {line:?}");
        };
        if name != workload.name() {
            continue;
        }
        let parse = |v: &str| v.parse::<u64>().expect("reference counts are integers");
        let fp = Fingerprint([
            parse(a),
            parse(b),
            parse(c),
            parse(d),
            u64::from_str_radix(h, 16).expect("reference hashes are hex"),
        ]);
        if s == seed {
            return Some(fp);
        }
        if s == "*" {
            any_seed = Some(fp);
        }
    }
    any_seed
}
