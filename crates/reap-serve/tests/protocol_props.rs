//! Property tests for the wire protocol: encode/decode round-trips over
//! arbitrary requests and responses (exact f64 bits preserved), malformed
//! input always answered with a structured error rather than a panic, and
//! the framing invariants (single line, bounded size) the server relies
//! on.

mod support;

use proptest::prelude::*;
use reap_serve::{ErrorCode, Request, Response, MAX_LINE_BYTES};
use support::{arb_error_code, arb_path, arb_request, arb_response};

/// Arbitrary junk lines: random bytes, truncated JSON, close-but-wrong
/// frames.
fn arb_junk() -> impl Strategy<Value = String> {
    prop_oneof![
        // Printable noise.
        proptest::collection::vec(32u8..127, 0..80)
            .prop_map(|b| String::from_utf8(b).expect("printable ASCII")),
        // Valid JSON, wrong shape.
        Just("[1,2,3]".to_string()),
        Just("42".to_string()),
        Just("\"observe\"".to_string()),
        Just("{\"type\":42}".to_string()),
        Just("{\"type\":\"observe\"}".to_string()),
        // Truncations of a valid frame.
        (0usize..30).prop_map(|n| {
            let full = "{\"type\":\"decide\",\"user\":3}";
            full[..n.min(full.len())].to_string()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_bit_exactly(req in arb_request()) {
        let line = req.encode();
        prop_assert!(!line.contains('\n'), "frame spans lines: {line}");
        prop_assert!(line.len() < MAX_LINE_BYTES, "frame oversized: {}", line.len());
        let back = Request::decode(&line);
        // PartialEq on Request compares f64 by value; bit-exactness needs
        // a second encode (identical bits <=> identical shortest repr).
        let back = match back {
            Ok(b) => b,
            Err(e) => panic!("decode failed on {line}: {e}"),
        };
        prop_assert_eq!(&back, &req, "value mismatch on {}", line);
        prop_assert_eq!(back.encode(), line);
    }

    #[test]
    fn responses_round_trip_bit_exactly(resp in arb_response()) {
        let line = resp.encode();
        prop_assert!(!line.contains('\n'), "frame spans lines: {line}");
        let back = match Response::decode(&line) {
            Ok(b) => b,
            Err(e) => panic!("decode failed on {line}: {e}"),
        };
        prop_assert_eq!(&back, &resp, "value mismatch on {}", line);
        prop_assert_eq!(back.encode(), line);
    }

    #[test]
    fn junk_never_panics_and_reports_malformed(line in arb_junk()) {
        // Whatever arrives, the decoder must return a structured error
        // (or, rarely, a valid frame if the junk happens to be one) —
        // never panic.
        if let Err(e) = Request::decode(&line) {
            prop_assert_eq!(e.code, ErrorCode::Malformed);
            prop_assert!(!e.message.is_empty());
        }
        if let Err(e) = Response::decode(&line) {
            prop_assert_eq!(e.code, ErrorCode::Malformed);
        }
    }

    #[test]
    fn error_frames_round_trip_their_code(code in arb_error_code(), msg in arb_path()) {
        let frame = Response::Error { code, message: msg.clone() };
        let line = frame.encode();
        match Response::decode(&line) {
            Ok(Response::Error { code: c, message: m }) => {
                prop_assert_eq!(c, code);
                prop_assert_eq!(m, msg);
            }
            other => panic!("error frame decoded to {other:?}"),
        }
    }
}
