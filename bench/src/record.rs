//! Flat JSON records: the one wire and file format of the harness.
//!
//! Child results, `result.json` and `trace.jsonl` lines are all flat
//! objects of scalars, written and parsed with `edgechain_telemetry::json`
//! (the only JSON code in the repository), keys in insertion order.

use edgechain_telemetry::json::{self, JsonValue};

/// An ordered flat object.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(String, JsonValue)>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// Appends a numeric field.
    pub fn num(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.fields.push((key.into(), JsonValue::Num(value)));
        self
    }

    /// Appends a string field.
    pub fn text(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.fields.push((key.into(), JsonValue::Str(value.into())));
        self
    }

    /// Numeric value of `key` (the first occurrence), if present.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(JsonValue::as_f64)
    }

    /// String value of `key`, if present.
    pub fn get_text(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Every field in insertion order.
    pub fn fields(&self) -> &[(String, JsonValue)] {
        &self.fields
    }

    /// Serializes on one line (`sep = " "`) or one field per line
    /// (`sep = "\n"`); both parse back with [`Record::parse`].
    pub fn to_json(&self, sep: &str) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            out.push_str(if i == 0 && sep == " " { "" } else { sep });
            json::write_str(&mut out, key);
            out.push_str(": ");
            match value {
                JsonValue::Null => out.push_str("null"),
                JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                JsonValue::Num(v) => json::write_f64(&mut out, *v),
                JsonValue::Str(s) => json::write_str(&mut out, s),
            }
        }
        out.push_str(if sep == " " { "" } else { sep });
        out.push('}');
        out
    }

    /// Parses one flat object.
    ///
    /// # Errors
    ///
    /// Returns the parser's message for anything but a flat object.
    pub fn parse(text: &str) -> Result<Record, String> {
        json::parse_flat_object(text).map(|fields| Record { fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_in_both_layouts() {
        let mut r = Record::new();
        r.text("schema", "edgebench/1")
            .num("paper/sim_speedup", 82_345.678_901_234)
            .num("paper/core.network.blocks", 4_012.0)
            .text("paper/report_digest", "ab\"c\\d")
            .num("tiny", 1.5e-9);
        for sep in [" ", "\n"] {
            let text = r.to_json(sep);
            assert_eq!(Record::parse(&text).unwrap(), r, "{text}");
        }
        assert_eq!(r.get_num("paper/core.network.blocks"), Some(4_012.0));
        assert_eq!(r.get_text("schema"), Some("edgebench/1"));
        assert_eq!(r.get_num("absent"), None);
    }

    #[test]
    fn empty_record_round_trips() {
        let r = Record::new();
        assert_eq!(Record::parse(&r.to_json(" ")).unwrap(), r);
        assert_eq!(Record::parse(&r.to_json("\n")).unwrap(), r);
    }

    #[test]
    fn nested_input_is_rejected() {
        assert!(Record::parse("{\"a\": {\"b\": 1}}").is_err());
        assert!(Record::parse("[1, 2]").is_err());
    }
}
