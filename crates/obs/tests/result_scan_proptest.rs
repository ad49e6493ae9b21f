//! Property test: the coordinator's result-line scan agrees with the full
//! parser. On every document `json::scan_result` reads the same `kind`,
//! `job` and `error` presence as `json::parse` followed by `Json::get`,
//! and it rejects exactly what the parser rejects — truncated lines and
//! garbage give `Err`, never a panic.

use proptest::prelude::*;

use psdacc_obs::json::{self, escape_str, scan_result, Json};

/// Text that stresses the scan: quotes and backslashes (escaped on the
/// wire), a nested `"error":` inside a string, and non-ASCII.
const TEXTS: [&str; 8] = [
    "psd",
    "summary",
    "error",
    "fir-cascade[stages=1,taps=9]",
    "boom: \"error\":\"x\" at \\ end",
    "héllo·τ 日本",
    "quote\" backslash\\ newline\n",
    "",
];

/// One top-level field, chosen by `pick`, with values drawn from `code`.
fn field(pick: u8, code: u64) -> String {
    let text = TEXTS[code as usize % TEXTS.len()];
    match pick {
        0 => format!("\"kind\":{}", escape_str(text)),
        1 => format!("\"job\":{}", code % 1000),
        2 => format!("\"job\":{}.5", code % 1000),
        3 => format!("\"job\":-{}", code % 1000 + 1),
        4 => format!("\"job\":\"{}\"", code % 1000),
        5 => format!("\"error\":{}", escape_str(text)),
        6 => "\"error\":null".to_string(),
        7 => format!("\"scenario\":{}", escape_str(text)),
        // A budget ledger: nested arrays and objects whose own `kind`,
        // `job` and `error` keys must not count as top-level fields.
        8 => format!(
            "\"budget\":[{{\"node\":{},\"share\":[{:e},[1,{{\"error\":\"x\",\"job\":2}}]]}},[],{{}}]",
            escape_str(text),
            code as f64 / 7.0
        ),
        // An escaped key that decodes to `kind` / `job`.
        9 => format!("\"k\\u0069nd\":{}", escape_str(text)),
        10 => format!("\"\\u006aob\":{}", code % 50),
        11 => format!("\"tau_eval_seconds\":{:e}", code as f64 * 1e-9),
        12 => "\"kind\":7".to_string(),
        13 => "\"cache_hit\":true,\"x\":false,\"y\":null".to_string(),
        14 => format!("\"nested\":{{\"kind\":\"summary\",\"job\":{},\"error\":1}}", code % 9),
        _ => format!("\"job\":{}e1", code % 100),
    }
}

/// A result-shaped object line built from field picks, with optional
/// whitespace around the separators.
fn line_of(picks: &[(u8, u64)], spaced: bool) -> String {
    let sep = if spaced { " , " } else { "," };
    let fields: Vec<String> = picks.iter().map(|&(pick, code)| field(pick, code)).collect();
    if spaced {
        format!(" {{ {} }} ", fields.join(sep))
    } else {
        format!("{{{}}}", fields.join(sep))
    }
}

/// The scan and the parser agree on acceptance and on the three fields.
fn assert_agrees(line: &str) {
    let scanned = scan_result(line);
    match json::parse(line) {
        Ok(value) => {
            let fields =
                scanned.unwrap_or_else(|e| panic!("scan rejects what parse accepts: {e}\n{line}"));
            assert_eq!(fields.kind.as_deref(), value.get("kind").and_then(Json::as_str), "{line}");
            assert_eq!(fields.job, value.get("job").and_then(Json::as_u64), "{line}");
            assert_eq!(fields.has_error, value.get("error").is_some(), "{line}");
        }
        Err(_) => assert!(scanned.is_err(), "scan accepts what parse rejects: {line}"),
    }
}

fn picks() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..16, 0u64..u64::MAX), 0..10)
}

/// Characters garbage is drawn from: JSON punctuation, escapes, digits,
/// literal starts and non-ASCII.
const GARBAGE: [char; 24] = [
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', '0', '9', '-', '.', 'e', 't', 'r', 'n', 'l', 'f',
    ' ', 'k', 'é', '\n', 'j',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn scan_agrees_with_parse_on_result_lines(picks in picks(), spaced in prop::bool::ANY) {
        let line = line_of(&picks, spaced);
        prop_assert!(json::parse(&line).is_ok(), "generator made an invalid line: {}", line);
        assert_agrees(&line);
    }

    #[test]
    fn truncated_lines_are_errors(picks in picks(), cut in 0usize..4096) {
        let line = line_of(&picks, false);
        let mut cut = cut % line.len();
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(scan_result(&line[..cut]).is_err(), "prefix accepted: {}", &line[..cut]);
    }

    #[test]
    fn garbage_and_corrupted_lines_agree(
        picks in picks(),
        at in 0usize..4096,
        junk in prop::collection::vec(0usize..GARBAGE.len(), 0..24),
    ) {
        let junk: String = junk.into_iter().map(|i| GARBAGE[i]).collect();
        assert_agrees(&junk);
        // The same junk spliced into a valid line.
        let line = line_of(&picks, false);
        let mut at = at % line.len();
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        assert_agrees(&format!("{}{junk}{}", &line[..at], &line[at..]));
    }
}

#[test]
fn scan_reads_a_real_result_line() {
    let line = r#"{"job":17,"kind":"psd","scenario":"fir-cascade[stages=1]","budget":[{"error":"nested"}],"tau_eval_seconds":3.1e-6}"#;
    let fields = scan_result(line).unwrap();
    assert_eq!(
        (fields.kind.as_deref(), fields.job, fields.has_error),
        (Some("psd"), Some(17), false)
    );
    let failed = r#"{"job":3,"kind":"psd","error":"boom \"x\""}"#;
    assert!(scan_result(failed).unwrap().has_error);
    assert!(
        matches!(scan_result(r#"{"kind":"summary"}"#).unwrap().kind, Some(ref k) if k == "summary")
    );
    // A non-finite number is as malformed to the scan as to the parser.
    assert!(scan_result(r#"{"job":1e400}"#).is_err());
    // Deep nesting is an error, not a stack overflow.
    let bomb = format!("{{\"budget\":{}}}", "[".repeat(200_000));
    assert!(scan_result(&bomb).unwrap_err().contains("nesting"));
}
