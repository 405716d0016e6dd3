//! Local JSON front-end for the serde shim: the `to_string`,
//! `to_string_pretty`, `to_writer_pretty` and `from_str` entry points
//! of the real `serde_json`, over the shim's streaming
//! [`serde::Serializer`] and [`serde::Deserializer`]. No value tree is
//! built either way: writing goes from the value to the output, and
//! reading from the input bytes to the value.

#![forbid(unsafe_code)]

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// JSON (de)serialization error.
pub use serde::Error;

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Never fails for the shim's data model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut s = Serializer::new(false);
    value.serialize(&mut s);
    Ok(s.into_string())
}

/// Serializes `value` to human-readable, 2-space-indented JSON.
///
/// # Errors
///
/// Never fails for the shim's data model (see [`to_string`]).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut s = Serializer::new(true);
    value.serialize(&mut s);
    Ok(s.into_string())
}

/// Writes the bytes of [`to_string_pretty`] to `writer`, a chunk at a
/// time, without holding the whole document.
///
/// # Errors
///
/// The first error `writer` returns.
pub fn to_writer_pretty<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let mut s = Serializer::with_writer(true, &mut writer);
    value.serialize(&mut s);
    s.finish().map_err(|e| Error::msg(e.to_string()))
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut d = Deserializer::new(s);
    let value = T::deserialize(&mut d)?;
    d.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(from_str::<u64>(&to_string(&42u64).unwrap()).unwrap(), 42);
        assert_eq!(from_str::<f64>(&to_string(&0.5f64).unwrap()).unwrap(), 0.5);
        assert_eq!(from_str::<f64>(&to_string(&3.0f64).unwrap()).unwrap(), 3.0);
        assert_eq!(
            from_str::<String>(&to_string(&"a\"b\n".to_string()).unwrap()).unwrap(),
            "a\"b\n"
        );
    }

    #[test]
    fn roundtrip_containers() {
        let v = vec![(1u32, true), (2, false)];
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Vec<(u32, bool)>>(&s).unwrap(), v);
        let o: Option<Vec<u8>> = None;
        assert_eq!(
            from_str::<Option<Vec<u8>>>(&to_string(&o).unwrap()).unwrap(),
            None
        );
    }

    #[test]
    fn strings_decode_multibyte_runs_and_escapes() {
        for (doc, want) in [
            (r#""""#, ""),
            // 2-, 3- and 4-byte UTF-8 characters, alone and mixed.
            (r#""é½€😀""#, "é½€😀"),
            (r#""aé\n½b€\t😀""#, "aé\n½b€\t😀"),
            // Escapes right next to runs.
            (r#""a\nb""#, "a\nb"),
            (r#""\"x""#, "\"x"),
            (r#""x\"""#, "x\""),
            (r#""\\\/""#, "\\/"),
            (r#""Aéz\u001f""#, "Aéz\u{1f}"),
            (r#""\u00e9\u00E9x\u0041""#, "ééxA"),
        ] {
            assert_eq!(from_str::<String>(doc).unwrap(), want, "{doc}");
        }
        for s in ["", "é½€😀 a\"b\\c\n\u{1}", "\"", "\\"] {
            let s = s.to_string();
            assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s);
        }
        assert!(from_str::<String>("\"abc").is_err());
        assert!(from_str::<String>("\"abc\\").is_err());
        assert!(from_str::<String>(r#""\q""#).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A decoder that re-validates the rest of the input per
        // character needs minutes for 4 MiB; a linear one needs
        // milliseconds, even in a debug build.
        let body = "abcé€".repeat(1 << 19);
        let doc = to_string(&body).unwrap();
        let start = std::time::Instant::now();
        let back = from_str::<String>(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back, body);
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "a {} byte string took {elapsed:?}",
            body.len()
        );
    }

    /// Reads nested arrays, one level per value.
    #[allow(dead_code)]
    #[derive(Deserialize)]
    struct Nest(Vec<Nest>);

    /// Reads any one value by skipping it.
    #[derive(Deserialize)]
    struct Skip;

    /// Skips every key but `a`.
    #[allow(dead_code)]
    #[derive(Deserialize)]
    struct One {
        a: u8,
    }

    /// `nested` accepts `doc(deepest)` and names the limit one level
    /// deeper.
    fn stops_at(
        nested: impl Fn(&str) -> Result<(), Error>,
        doc: impl Fn(usize) -> String,
        deepest: usize,
    ) {
        assert!(nested(&doc(deepest)).is_ok());
        let err = nested(&doc(deepest + 1)).expect_err("too deep");
        assert!(
            err.0
                .starts_with("recursion limit exceeded: more than 128 nested"),
            "{err}"
        );
    }

    #[test]
    fn nesting_stops_at_the_recursion_limit() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"k\":".repeat(depth) + "1" + &"}".repeat(depth);
        let read = |doc: &str| from_str::<Nest>(doc).map(drop);
        let skipped = |doc: &str| from_str::<Skip>(doc).map(drop);
        // One level down, as the value of an unknown key.
        let unknown = |doc: &str| from_str::<One>(&format!("{{\"a\":1,\"b\":{doc}}}")).map(drop);
        let limit = serde::de::RECURSION_LIMIT;
        stops_at(read, arrays, limit);
        stops_at(skipped, arrays, limit);
        stops_at(skipped, objects, limit);
        stops_at(unknown, arrays, limit - 1);
        stops_at(unknown, objects, limit - 1);
        // Far past the limit, on a thread with the default 2 MiB stack:
        // a named error, not a stack overflow, whether read or skipped.
        for nested in [read, skipped] {
            let hostile = "[".repeat(100_000);
            let err = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || nested(&hostile))
                .expect("spawn")
                .join()
                .expect("reader thread survives")
                .expect_err("rejected");
            assert!(err.0.starts_with("recursion limit exceeded"), "{err}");
            assert!(err.0.ends_with("at byte 128"), "{err}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u64>("{").is_err());
        assert!(from_str::<u64>("12 34").is_err());
        assert!(from_str::<bool>("truthy").is_err());
    }
}
