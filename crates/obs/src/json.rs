//! A hand-rolled, offline-safe JSON writer (no serde).
//!
//! Produces deterministic, valid RFC 8259 output: keys and values are
//! written in call order, strings are escaped, non-finite floats become
//! `null` (JSON has no NaN/Infinity), and `f64` uses Rust's shortest
//! round-trip formatting so identical runs serialise identically.

/// Escapes `s` into `out` as JSON string *content* (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Frame {
    Object { first: bool, after_key: bool },
    Array { first: bool },
}

/// A streaming JSON writer.
///
/// Call [`begin_object`](Self::begin_object)/[`begin_array`](Self::begin_array),
/// [`key`](Self::key) and the value methods in document order;
/// [`finish`](Self::finish) returns the built string. Misuse (a value with a
/// pending key missing, unbalanced frames) panics — writers are exercised by
/// tests, not user input.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    stack: Vec<Frame>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn before_value(&mut self) {
        match self.stack.last_mut() {
            None => {}
            Some(Frame::Array { first }) => {
                if !*first {
                    self.out.push(',');
                }
                *first = false;
            }
            Some(Frame::Object { after_key, .. }) => {
                assert!(*after_key, "object value without a key");
                *after_key = false;
            }
        }
    }

    /// Starts an object value.
    pub fn begin_object(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('{');
        self.stack.push(Frame::Object {
            first: true,
            after_key: false,
        });
        self
    }

    /// Closes the current object.
    pub fn end_object(&mut self) -> &mut Self {
        match self.stack.pop() {
            Some(Frame::Object { after_key, .. }) => assert!(!after_key, "dangling key"),
            other => panic!("end_object out of place: {other:?}"),
        }
        self.out.push('}');
        self
    }

    /// Starts an array value.
    pub fn begin_array(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('[');
        self.stack.push(Frame::Array { first: true });
        self
    }

    /// Closes the current array.
    pub fn end_array(&mut self) -> &mut Self {
        match self.stack.pop() {
            Some(Frame::Array { .. }) => {}
            other => panic!("end_array out of place: {other:?}"),
        }
        self.out.push(']');
        self
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        match self.stack.last_mut() {
            Some(Frame::Object { first, after_key }) => {
                assert!(!*after_key, "two keys in a row");
                if !*first {
                    self.out.push(',');
                }
                *first = false;
                *after_key = true;
            }
            other => panic!("key outside object: {other:?}"),
        }
        self.out.push('"');
        escape_into(&mut self.out, k);
        self.out.push_str("\":");
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.before_value();
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.before_value();
        self.out.push_str(&v.to_string());
        self
    }

    /// Writes a float value (`null` for non-finite values).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.before_value();
        if v.is_finite() {
            // Shortest round-trip formatting; integral values still get a
            // fractional part so the field reads as a float.
            if v == v.trunc() && v.abs() < 1e15 {
                self.out.push_str(&format!("{v:.1}"));
            } else {
                self.out.push_str(&format!("{v}"));
            }
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a `null` value.
    pub fn null(&mut self) -> &mut Self {
        self.before_value();
        self.out.push_str("null");
        self
    }

    /// Convenience: `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).string(v)
    }

    /// Convenience: `key` + u64 value.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).u64(v)
    }

    /// Convenience: `key` + f64 value.
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).f64(v)
    }

    /// Convenience: `key` + optional u64 (`null` when `None`).
    pub fn field_opt_u64(&mut self, k: &str, v: Option<u64>) -> &mut Self {
        self.key(k);
        match v {
            Some(v) => self.u64(v),
            None => self.null(),
        }
    }

    /// Finishes the document and returns it.
    ///
    /// # Panics
    ///
    /// Panics if any object or array is still open.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unbalanced JSON frames");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials_and_controls() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\re\tf\u{08}g\u{0c}h\u{01}i√");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i√");
    }

    #[test]
    fn writes_nested_structures() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_str("name", "run")
            .key("values")
            .begin_array()
            .u64(1)
            .f64(2.5)
            .null()
            .bool(true)
            .string("s")
            .end_array()
            .key("nested")
            .begin_object()
            .field_u64("n", 7)
            .end_object()
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"run","values":[1,2.5,null,true,"s"],"nested":{"n":7}}"#
        );
    }

    #[test]
    fn floats_are_stable_and_json_safe() {
        let mut w = JsonWriter::new();
        w.begin_array()
            .f64(f64::NAN)
            .f64(f64::INFINITY)
            .f64(0.1 + 0.2)
            .f64(3.0)
            .f64(-0.0)
            .end_array();
        assert_eq!(w.finish(), "[null,null,0.30000000000000004,3.0,-0.0]");
    }

    #[test]
    fn float_tokens_round_trip_bit_exactly() {
        // Every finite float must parse back to the identical bit pattern:
        // artifacts are diffed and re-read by tools, so lossy formatting
        // would silently corrupt metrics.
        let cases = [
            0.0,
            -0.0,
            0.1,
            0.1 + 0.2,
            1.0 / 3.0,
            std::f64::consts::PI,
            1e-308, // subnormal territory
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            f64::MAX,
            1e15,                // first magnitude past the {v:.1} fast path
            1e15 - 1.0,          // last magnitude inside it
            (1u64 << 53) as f64, // integer precision edge
            -1234.5678e-9,
            2.225_073_858_507_201e-308, // historical strtod stress value
        ];
        for v in cases {
            let mut w = JsonWriter::new();
            w.f64(v);
            let token = w.finish();
            let back: f64 = token
                .parse()
                .unwrap_or_else(|_| panic!("unparseable: {token}"));
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e} -> {token} -> {back:e}");
        }
    }

    #[test]
    fn non_finite_floats_become_null_everywhere() {
        for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut w = JsonWriter::new();
            w.begin_object().field_f64("v", v).end_object();
            assert_eq!(w.finish(), r#"{"v":null}"#, "{v} must serialise as null");
        }
    }

    #[test]
    fn float_tokens_use_no_locale_dependent_characters() {
        // RFC 8259 numbers use '.' as the only decimal separator and no
        // grouping. Rust's formatter is locale-independent by contract; pin
        // that the emitted alphabet stays inside the JSON number grammar so
        // a regression (e.g. a future switch to a locale-aware formatter)
        // fails loudly rather than producing "3,14".
        let cases = [0.5, -1234567.89, 1e300, 0.12345, 1e15 + 7.0, 42.0];
        for v in cases {
            let mut w = JsonWriter::new();
            w.f64(v);
            let token = w.finish();
            assert!(
                token
                    .bytes()
                    .all(|b| b.is_ascii_digit() || b"+-.eE".contains(&b)),
                "{v}: token {token:?} has characters outside the JSON number grammar"
            );
            assert!(!token.contains(','), "{v}: grouping separator in {token:?}");
            assert!(
                token.matches('.').count() <= 1,
                "one decimal point in {token:?}"
            );
        }
    }

    #[test]
    fn negative_and_large_integers() {
        let mut w = JsonWriter::new();
        w.begin_array().f64(-5.0).u64(u64::MAX).end_array();
        assert_eq!(w.finish(), format!("[-5.0,{}]", u64::MAX));
    }

    #[test]
    #[should_panic(expected = "object value without a key")]
    fn value_without_key_panics() {
        let mut w = JsonWriter::new();
        w.begin_object().u64(1);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_finish_panics() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.finish();
    }
}
