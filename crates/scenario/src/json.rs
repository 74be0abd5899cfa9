//! A minimal, deterministic JSON writer.
//!
//! Scenario reports must serialize byte-identically run-to-run (the CI
//! determinism gate diffs them), and the build environment is offline,
//! so rather than a serde dependency the report uses this writer: keys
//! are emitted in call order, floats with a fixed `{:.3}` format, and
//! nothing (maps, pointers, times-of-day) can leak nondeterminism in.

/// An in-progress JSON document.
pub struct JsonWriter {
    buf: String,
    /// Whether the current aggregate already has a first element.
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// Renders a whole document as one object built by `f`.
    pub(crate) fn document(f: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter {
            buf: String::new(),
            need_comma: Vec::new(),
        };
        w.open('{');
        f(&mut w);
        w.close('}');
        w.buf.push('\n');
        w.buf
    }

    fn open(&mut self, c: char) {
        self.buf.push(c);
        self.need_comma.push(false);
    }

    fn close(&mut self, c: char) {
        self.need_comma.pop();
        self.buf.push(c);
    }

    fn element(&mut self) {
        if let Some(first) = self.need_comma.last_mut() {
            if *first {
                self.buf.push(',');
            }
            *first = true;
        }
    }

    fn key(&mut self, k: &str) {
        self.element();
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Writes a float field with three decimals (fixed, deterministic).
    pub fn f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.buf.push_str(&format!("{v:.3}"));
    }

    /// Writes a string field (escapes quotes and backslashes; report
    /// strings are ASCII identifiers, control characters are rejected).
    pub fn str(&mut self, k: &str, v: &str) {
        assert!(
            !v.chars().any(|c| c.is_control()),
            "control characters in report strings are unsupported"
        );
        self.key(k);
        self.buf.push('"');
        for c in v.chars() {
            if c == '"' || c == '\\' {
                self.buf.push('\\');
            }
            self.buf.push(c);
        }
        self.buf.push('"');
    }

    /// Writes a nested object field.
    pub fn obj(&mut self, k: &str, f: impl FnOnce(&mut JsonWriter)) {
        self.key(k);
        self.open('{');
        f(self);
        self.close('}');
    }

    /// Writes an array field of objects, one per item of `items`.
    pub fn arr<T>(&mut self, k: &str, items: &[T], mut f: impl FnMut(&mut JsonWriter, &T)) {
        self.key(k);
        self.open('[');
        for item in items {
            self.element();
            self.open('{');
            f(self, item);
            self.close('}');
        }
        self.close(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document_renders() {
        let s = JsonWriter::document(|w| {
            w.str("name", "smoke");
            w.u64("seed", 7);
            w.f64("mean", 1.0 / 3.0);
            w.obj("inner", |w| {
                w.u64("a", 1);
                w.u64("b", 2);
            });
            w.arr("items", &[1u64, 2], |w, &v| w.u64("v", v));
        });
        assert_eq!(
            s,
            "{\"name\":\"smoke\",\"seed\":7,\"mean\":0.333,\
             \"inner\":{\"a\":1,\"b\":2},\
             \"items\":[{\"v\":1},{\"v\":2}]}\n"
        );
    }

    #[test]
    fn strings_escape_quotes() {
        let s = JsonWriter::document(|w| w.str("k", "a\"b\\c"));
        assert_eq!(s, "{\"k\":\"a\\\"b\\\\c\"}\n");
    }

    #[test]
    fn empty_aggregates() {
        let s = JsonWriter::document(|w| {
            w.obj("o", |_| {});
            w.arr::<u64>("a", &[], |_, _| {});
        });
        assert_eq!(s, "{\"o\":{},\"a\":[]}\n");
    }
}
