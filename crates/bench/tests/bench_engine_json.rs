//! The committed `BENCH_engine.json` and the memory gate `run_all`
//! applies before replacing it.
//!
//! The first test pins the committed file to the one JSON writer: it must
//! parse, carry the current schema, and re-serialize byte for byte. The
//! rest pin [`plane_regressions`] — the comparison that makes `run_all`
//! exit 1 instead of overwriting the file when a memory plane grew.

use gcs_bench::record::plane_regressions;
use gcs_mc::json::Json;

#[test]
fn committed_bench_file_is_v12_and_a_writer_fixpoint() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let text = std::fs::read_to_string(path).expect("BENCH_engine.json is committed");
    let doc = Json::parse(&text).expect("BENCH_engine.json parses");
    let schema = doc.as_obj("root").unwrap().field("schema").unwrap();
    assert_eq!(schema.as_str("schema"), Ok("bench-engine/v12"));
    assert!(
        doc.write(usize::MAX) == text,
        "BENCH_engine.json is not byte-identical to its re-serialization"
    );
}

/// A document with E14's wheel and topology meters and one E12 and one
/// E13 family per `(section, family, wheel bytes)`.
fn doc(e14_wheel: u64, families: &[(&str, &str, u64)]) -> Json {
    let section = |name: &str| {
        families
            .iter()
            .filter(|(s, ..)| *s == name)
            .map(|&(_, family, bytes)| {
                Json::obj([
                    ("family", family.into()),
                    ("plane_wheel_bytes", bytes.into()),
                ])
            })
            .collect::<Json>()
    };
    Json::obj([
        (
            "e12_dynamic_workloads",
            Json::obj([("families", section("e12_dynamic_workloads"))]),
        ),
        (
            "e13_scale_ceiling",
            Json::obj([("families", section("e13_scale_ceiling"))]),
        ),
        (
            "e14_memory_ceiling",
            Json::obj([
                ("plane_topology_bytes", 1000_u64.into()),
                ("plane_wheel_bytes", e14_wheel.into()),
            ]),
        ),
    ])
}

#[test]
fn growth_over_ten_percent_is_flagged() {
    assert_eq!(
        plane_regressions(&doc(1000, &[]), &doc(1110, &[])),
        ["e14_memory_ceiling - plane_wheel_bytes: 1000 -> 1110 bytes (+11.0%)"]
    );
}

#[test]
fn growth_up_to_ten_percent_and_shrinks_pass() {
    assert!(plane_regressions(&doc(1000, &[]), &doc(1090, &[])).is_empty());
    assert!(plane_regressions(&doc(1000, &[]), &doc(1100, &[])).is_empty());
    assert!(plane_regressions(&doc(1000, &[]), &doc(500, &[])).is_empty());
}

#[test]
fn meters_missing_from_the_committed_file_are_not_compared() {
    let committed = Json::obj([("schema", "bench-engine/v9".into())]);
    let candidate = doc(1000, &[("e12_dynamic_workloads", "mobility", 900)]);
    assert!(plane_regressions(&committed, &candidate).is_empty());
}

#[test]
fn meters_missing_from_the_new_document_are_flagged() {
    let committed = doc(1000, &[("e13_scale_ceiling", "churn-walk", 900)]);
    assert_eq!(
        plane_regressions(&committed, &doc(1000, &[])),
        ["e13_scale_ceiling churn-walk plane_wheel_bytes: missing from the new document"]
    );
}

#[test]
fn families_are_matched_by_name_not_position() {
    let committed = doc(
        1000,
        &[
            ("e12_dynamic_workloads", "mobility", 5000),
            ("e12_dynamic_workloads", "partition", 1000),
            ("e13_scale_ceiling", "churn-walk", 1000),
        ],
    );
    // Reordered, with partition grown 20%: only partition is flagged,
    // although it now sits where the larger mobility meter was.
    let candidate = doc(
        1000,
        &[
            ("e12_dynamic_workloads", "partition", 1200),
            ("e12_dynamic_workloads", "mobility", 5000),
            ("e13_scale_ceiling", "churn-walk", 1000),
        ],
    );
    assert_eq!(
        plane_regressions(&committed, &candidate),
        ["e12_dynamic_workloads partition plane_wheel_bytes: 1000 -> 1200 bytes (+20.0%)"]
    );
}
