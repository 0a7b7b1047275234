//! Offline stand-in for `serde_json` 1: the four entry points this
//! repository calls, over the stand-in `serde` crate's JSON writer and
//! parser (see `../serde`).

#![forbid(unsafe_code)]

use serde::de::DeserializeOwned;
use serde::Serialize;

pub use serde::json::{Error, Number, Value};

/// The result type of this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as compact JSON bytes.
///
/// # Errors
/// Never fails here; the signature matches the published crate.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut w = serde::json::Writer::new();
    value.serialize(&mut w);
    Ok(w.into_bytes())
}

/// Serializes `value` as a compact JSON string.
///
/// # Errors
/// Never fails here; the signature matches the published crate.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    // The writer only emits ASCII structure, escaped strings and the
    // caller's own `str` data, so the bytes are valid UTF-8.
    String::from_utf8(to_vec(value)?).map_err(Error::custom)
}

/// Parses `bytes` as JSON into a `T`.
///
/// # Errors
/// Fails on malformed JSON or a document of the wrong shape.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    T::deserialize(&serde::json::parse(bytes)?)
}

/// Parses `text` as JSON into a `T`.
///
/// # Errors
/// Fails on malformed JSON or a document of the wrong shape.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub(crate) struct Inner(f64);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub(crate) struct Pair(u8, String);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Unit;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub(crate) enum Kind {
        Plain,
        Wrapped(Inner),
        Two(i32, bool),
        Shaped {
            /// Doc comments on fields must not confuse the derive.
            r#type: String,
            weights: Vec<f32>,
        },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub(crate) struct Record {
        pub id: u64,
        pub(crate) kinds: Vec<Kind>,
        stats: BTreeMap<String, f64>,
        by_rank: BTreeMap<usize, Pair>,
        nested: Option<Box<Record>>,
        #[serde(default)]
        budget: Option<u64>,
        #[serde(default)]
        retries: u32,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        note: Option<String>,
        unit: Unit,
        tuple: (u8, i8),
        fixed: [u16; 2],
    }

    fn record() -> Record {
        Record {
            id: u64::MAX,
            kinds: vec![
                Kind::Plain,
                Kind::Wrapped(Inner(-0.5)),
                Kind::Two(-7, true),
                Kind::Shaped {
                    r#type: "a\"b".into(),
                    weights: vec![0.25, 1.0],
                },
            ],
            stats: BTreeMap::from([("groups".to_string(), 3.0)]),
            by_rank: BTreeMap::from([(2, Pair(9, "x".into()))]),
            nested: None,
            budget: Some(4),
            retries: 2,
            note: None,
            unit: Unit,
            tuple: (1, -1),
            fixed: [7, 8],
        }
    }

    #[test]
    fn layout_matches_the_published_crates() {
        let text = to_string(&record()).unwrap();
        assert_eq!(
            text,
            concat!(
                r#"{"id":18446744073709551615,"kinds":["Plain",{"Wrapped":-0.5},{"Two":[-7,true]},"#,
                r#"{"Shaped":{"type":"a\"b","weights":[0.25,1.0]}}],"stats":{"groups":3.0},"#,
                r#""by_rank":{"2":[9,"x"]},"nested":null,"budget":4,"retries":2,"unit":null,"#,
                r#""tuple":[1,-1],"fixed":[7,8]}"#
            )
        );
    }

    #[test]
    fn round_trips_including_nesting() {
        let mut outer = record();
        outer.nested = Some(Box::new(record()));
        outer.note = Some("kept".into());
        let back: Record = from_slice(&to_vec(&outer).unwrap()).unwrap();
        assert_eq!(back, outer);
    }

    #[test]
    fn defaults_unknown_fields_and_errors() {
        let minimal = r#"{"id":1,"kinds":[],"stats":{},"by_rank":{},"unit":null,
                          "tuple":[0,0],"fixed":[0,0],"future_field":{"x":[1,2]}}"#;
        let r: Record = from_str(minimal).unwrap();
        assert_eq!(
            (r.budget, r.retries, &r.note, &r.nested),
            (None, 0, &None, &None)
        );

        let err = from_str::<Record>(r#"{"kinds":[]}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `id`"), "{err}");
        let err = from_str::<Kind>(r#""Nope""#).unwrap_err();
        assert!(err.to_string().contains("unknown variant"), "{err}");
        assert!(from_str::<Kind>(r#"{"Two":[1]}"#).is_err());
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<Inner>("\"x\"").is_err());
        assert_eq!(from_str::<Kind>(r#"{"Plain":null}"#).unwrap(), Kind::Plain);
    }
}
