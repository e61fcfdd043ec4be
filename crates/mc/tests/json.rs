//! The workspace's one JSON tree (`gcs_mc::json`): number forms, the
//! break-depth layout, string escapes, and fail-closed writing and
//! parsing. ITF traces and `BENCH_engine.json` pin its bytes end to end.

use gcs_mc::json::Json;
use gcs_mc::json_fields;

#[test]
fn integers_and_floats_keep_their_form() {
    let text = "[2, 2.0, -3, 1e-300, 0.30000000000000004]\n";
    let v = Json::parse(text).unwrap();
    assert_eq!(v.as_arr("v").unwrap()[0], Json::Int(2));
    assert_eq!(v.as_arr("v").unwrap()[1], Json::Num(2.0));
    assert_eq!(v.write(usize::MAX), text);
}

#[test]
fn break_depth_sets_the_layout() {
    let v = Json::obj([
        ("a", Json::obj([("b", Json::obj([("c", Json::Null)]))])),
        ("e", Json::obj::<&str>([])),
        ("f", Json::from_iter([Json::Arr(vec![])])),
    ]);
    assert_eq!(
        v.write(2),
        "{\n  \"a\": {\n    \"b\": {\"c\": null}\n  },\n  \"e\": {},\n  \"f\": [\n    []\n  ]\n}\n"
    );
}

#[test]
fn struct_fields_become_keys_in_declaration_order() {
    struct Edge {
        lo: u32,
        hi: u32,
    }
    let edge = Edge { lo: 0, hi: 3 };
    let json = Json::obj(json_fields!(Edge { lo, hi } = edge));
    assert_eq!(json.write(0), "{\"lo\": 0, \"hi\": 3}\n");
}

#[test]
fn strings_round_trip_their_escapes() {
    let v = Json::from("q\"\\ \n\t\r \u{1} — é");
    let text = v.write(0);
    assert_eq!(text, "\"q\\\"\\\\ \\n\\t\\r \\u0001 — é\"\n");
    assert_eq!(Json::parse(&text), Ok(v));
}

#[test]
#[should_panic(expected = "JSON cannot encode the number NaN")]
fn non_finite_numbers_panic() {
    Json::from(f64::NAN).write(0);
}

#[test]
fn parser_rejects_malformed_numbers() {
    assert!(Json::parse("1e999").is_err());
    assert!(Json::parse("1.2.3").is_err());
    assert!(Json::parse("[1,]").is_err());
}
