//! Property tests for the JSON reader's string path: whatever a string
//! holds — multi-byte UTF-8, quotes, backslashes, control characters —
//! `escape` followed by `Json::parse` gives it back unchanged, and so does
//! the all-`\u` encoding other JSON tools emit (astral characters as
//! UTF-16 surrogate pairs).

use proptest::prelude::*;
use xcv_cert::json::{escape, Json};

/// Characters the reader and writer treat specially, plus the UTF-8
/// length boundaries.
const SPECIAL: &[char] = &[
    '"',
    '\\',
    '/',
    '\n',
    '\t',
    '\r',
    '\u{8}',
    '\u{c}',
    '\0',
    '\u{1f}',
    '\u{7f}',
    '\u{80}',
    '\u{7ff}',
    '\u{800}',
    'é',
    '中',
    '\u{2028}',
    '\u{ffff}',
    '\u{10000}',
    '\u{1f600}',
    '\u{10ffff}',
];

/// A string of `len` characters drawn from `seed`: a quarter each of
/// printable ASCII, control characters, [`SPECIAL`] and arbitrary scalars.
fn arbitrary_string(len: usize, seed: u64) -> String {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let pick = state.wrapping_mul(0x2545F4914F6CDD1D);
            let r = pick >> 2;
            match pick % 4 {
                0 => char::from(0x20 + (r % 95) as u8),
                1 => char::from((r % 0x20) as u8),
                2 => SPECIAL[(r % SPECIAL.len() as u64) as usize],
                _ => char::from_u32((r % 0x11_0000) as u32).unwrap_or('\u{fffd}'),
            }
        })
        .collect()
}

/// Every character as `\uXXXX` escapes, astral ones as a surrogate pair.
fn escape_all_utf16(s: &str) -> String {
    s.encode_utf16().map(|u| format!("\\u{u:04x}")).collect()
}

fn parsed_member(doc: &str) -> Result<String, String> {
    let v = Json::parse(doc)?;
    Ok(v.want("k")?.as_arr()?[0].as_str()?.to_string())
}

proptest! {
    #[test]
    fn escape_then_parse_round_trips(len in 0usize..64, seed in 0u64..u64::MAX) {
        let s = arbitrary_string(len, seed);
        let doc = format!("{{\"k\": [\"{}\", 1]}}", escape(&s));
        prop_assert_eq!(parsed_member(&doc), Ok(s));
    }

    #[test]
    fn utf16_escapes_round_trip(len in 0usize..64, seed in 0u64..u64::MAX) {
        let s = arbitrary_string(len, seed);
        let doc = format!("{{\"k\": [\"{}\"]}}", escape_all_utf16(&s));
        prop_assert_eq!(parsed_member(&doc), Ok(s));
    }
}
