//! The campaign query language and its canonical cache key.
//!
//! A query is one what-if question against the cost models:
//!
//! ```text
//! app=Pele machine=Frontier nodes=512 knob:chemistry=1.5 scenario=drill
//! ```
//!
//! Whitespace-separated `key=value` tokens; `app` and `machine` are
//! required, `nodes` defaults to the machine's full scale (0), any number
//! of `knob:<span-substring>=<stretch-factor>` tokens perturb matching
//! spans, and `scenario` tags the evaluation for attribution. Parsing is
//! strict — unknown keys, duplicate fields, malformed numbers, and
//! unknown app or machine names are errors, because a mistyped query that
//! silently evaluated something else would poison the cache under its
//! wrong name.

use std::ops::Range;

use exa_apps::query::{is_known_app, is_known_machine};
use serde::Serialize;

/// One parsed campaign query. Knobs are held sorted by needle so that
/// two queries differing only in knob order share a cache key.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Query {
    /// Application name, as given (names are matched case-insensitively
    /// downstream, but the key preserves the caller's casing).
    pub app: String,
    /// Machine model name.
    pub machine: String,
    /// Node-count override; 0 keeps the machine's full scale.
    pub nodes: u32,
    /// Span-stretch knobs `(needle, factor)`, sorted by needle.
    pub knobs: Vec<(String, f64)>,
    /// Scenario tag carried into metrics labels ("" = clean).
    pub scenario: String,
}

impl Query {
    /// Build a clean full-scale query.
    pub fn new(app: &str, machine: &str) -> Self {
        Query {
            app: app.to_string(),
            machine: machine.to_string(),
            nodes: 0,
            knobs: Vec::new(),
            scenario: String::new(),
        }
    }

    /// Add a knob, keeping the knob list sorted.
    pub fn with_knob(mut self, needle: &str, factor: f64) -> Self {
        self.knobs.push((needle.to_string(), factor));
        self.knobs.sort_by(|a, b| a.0.cmp(&b.0));
        self
    }

    /// Set the node-count override.
    pub fn with_nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// The canonical cache key. Knob factors are rendered as the hex of
    /// their IEEE-754 bits so that keys are exact — no two distinct
    /// factors ever collide through decimal formatting. Fields are joined
    /// by `|`; inside a text field, `\` and `|` are escaped as `\\` and
    /// `\|`, so every unescaped `|` is a separator, the separator count
    /// fixes the knob count and no scenario tag can spell a knob: two
    /// distinct queries, parsed or built, never share a key. A value with
    /// neither character is copied as is.
    pub fn key(&self) -> String {
        let mut key = String::with_capacity(64);
        let knobs = self.knobs.iter().map(|(n, f)| (n.as_str(), *f));
        write_key(
            &mut key,
            &self.app,
            &self.machine,
            self.nodes,
            knobs,
            &self.scenario,
        );
        key
    }

    /// Render the query back into its textual form. `parse(render(q))`
    /// reproduces `q` exactly (factors round-trip through `f64`'s
    /// shortest decimal representation).
    pub fn render(&self) -> String {
        let mut out = format!("app={} machine={}", self.app, self.machine);
        if self.nodes > 0 {
            out.push_str(&format!(" nodes={}", self.nodes));
        }
        for (needle, factor) in &self.knobs {
            out.push_str(&format!(" knob:{needle}={factor}"));
        }
        if !self.scenario.is_empty() {
            out.push_str(&format!(" scenario={}", self.scenario));
        }
        out
    }

    /// Parse the textual form. Returns a human-readable error naming the
    /// offending token; a `|` anywhere in a token is an error, because
    /// it separates the fields of the cache key.
    pub fn parse(text: &str) -> Result<Query, String> {
        let mut knobs = Vec::new();
        let q = QueryRef::parse(text, &mut knobs)?;
        Ok(Query {
            app: q.app.to_string(),
            machine: q.machine.to_string(),
            nodes: q.nodes,
            knobs: knobs.iter().map(|&(n, f)| (n.to_string(), f)).collect(),
            scenario: q.scenario.to_string(),
        })
    }
}

/// A [`Query`] whose text fields borrow the query text and whose knobs
/// sit in a buffer shared with the other queries of its batch: what the
/// service parses each request into, so that parsing allocates nothing
/// per query.
#[derive(Debug)]
pub(crate) struct QueryRef<'a> {
    pub app: &'a str,
    pub machine: &'a str,
    pub nodes: u32,
    /// Its knobs, sorted by needle, as a range of the knob buffer it was
    /// parsed into.
    pub knobs: Range<usize>,
    pub scenario: &'a str,
}

impl<'a> QueryRef<'a> {
    /// The grammar, in one pass over the tokens; see [`Query::parse`].
    /// The query's knobs are appended to `knobs`, sorted by needle; on an
    /// error `knobs` is left as it was.
    pub fn parse(text: &'a str, knobs: &mut Vec<(&'a str, f64)>) -> Result<Self, String> {
        let start = knobs.len();
        let parsed = Self::fields(text, knobs, start);
        if parsed.is_err() {
            knobs.truncate(start);
        }
        parsed
    }

    /// [`QueryRef::parse`], its knobs appended to `knobs` from `start`.
    fn fields(
        text: &'a str,
        knobs: &mut Vec<(&'a str, f64)>,
        start: usize,
    ) -> Result<Self, String> {
        let mut app: Option<&str> = None;
        let mut machine: Option<&str> = None;
        let mut nodes: Option<u32> = None;
        let mut scenario: Option<&str> = None;
        for token in text.split_whitespace() {
            let (field, value) = token
                .split_once('=')
                .ok_or_else(|| format!("token '{token}' is not key=value"))?;
            if value.is_empty() {
                return Err(format!("token '{token}' has an empty value"));
            }
            if token.contains('|') {
                return Err(format!(
                    "token '{token}' contains '|', the cache-key separator"
                ));
            }
            match field {
                "app" => set_once(&mut app, value, "app")?,
                "machine" => set_once(&mut machine, value, "machine")?,
                "nodes" => {
                    let n: u32 = value
                        .parse()
                        .map_err(|_| format!("nodes '{value}' is not a u32"))?;
                    if nodes.replace(n).is_some() {
                        return Err("duplicate field 'nodes'".to_string());
                    }
                }
                "scenario" => set_once(&mut scenario, value, "scenario")?,
                _ => {
                    let needle = field
                        .strip_prefix("knob:")
                        .ok_or_else(|| format!("unknown field '{field}'"))?;
                    if needle.is_empty() {
                        return Err("knob with an empty span needle".to_string());
                    }
                    let factor: f64 = value
                        .parse()
                        .map_err(|_| format!("knob factor '{value}' is not a number"))?;
                    if !factor.is_finite() || factor <= 0.0 {
                        return Err(format!("knob factor {factor} must be finite and positive"));
                    }
                    if knobs[start..].iter().any(|&(n, _)| n == needle) {
                        return Err(format!("duplicate knob '{needle}'"));
                    }
                    knobs.push((needle, factor));
                }
            }
        }
        let app = app.ok_or("missing required field 'app'")?;
        let machine = machine.ok_or("missing required field 'machine'")?;
        if !is_known_app(app) {
            return Err(format!("unknown application '{app}'"));
        }
        if !is_known_machine(machine) {
            return Err(format!("unknown machine '{machine}'"));
        }
        // Needles are distinct, so the unstable sort, which allocates
        // nothing, gives the one sorted order.
        knobs[start..].sort_unstable_by(|a, b| a.0.cmp(b.0));
        Ok(QueryRef {
            app,
            machine,
            nodes: nodes.unwrap_or(0),
            knobs: start..knobs.len(),
            scenario: scenario.unwrap_or_default(),
        })
    }

    /// Append the canonical cache key (see [`Query::key`]) to `key`;
    /// `knobs` is the buffer the query was parsed into.
    pub fn write_key(&self, key: &mut String, knobs: &[(&str, f64)]) {
        let knobs = knobs[self.knobs.clone()].iter().copied();
        write_key(
            key,
            self.app,
            self.machine,
            self.nodes,
            knobs,
            self.scenario,
        );
    }
}

/// Append the key [`Query::key`] describes, from a query's fields (knobs
/// sorted by needle), to `key`. Numbers are written digit by digit, as
/// `fmt` would spell them but without its machinery.
fn write_key<'k>(
    key: &mut String,
    app: &str,
    machine: &str,
    nodes: u32,
    knobs: impl Iterator<Item = (&'k str, f64)>,
    scenario: &str,
) {
    push_escaped(key, app);
    key.push('|');
    push_escaped(key, machine);
    key.push('|');
    push_decimal(key, nodes);
    for (needle, factor) in knobs {
        key.push('|');
        push_escaped(key, needle);
        key.push('=');
        push_hex16(key, factor.to_bits());
    }
    key.push('|');
    push_escaped(key, scenario);
}

/// Append `n` in decimal, as `{n}` spells it.
fn push_decimal(key: &mut String, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    key.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Append `bits` as 16 lowercase hex digits, as `{bits:016x}` spells it.
fn push_hex16(key: &mut String, bits: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX[(bits >> (60 - 4 * i)) as usize & 0xf];
    }
    key.push_str(std::str::from_utf8(&digits).expect("ASCII digits"));
}

/// Append `value` to a cache key with the key's separator `|` and the
/// escape character `\` each preceded by `\`.
fn push_escaped(key: &mut String, value: &str) {
    if !value.contains(['|', '\\']) {
        key.push_str(value);
        return;
    }
    for c in value.chars() {
        if c == '|' || c == '\\' {
            key.push('\\');
        }
        key.push(c);
    }
}

fn set_once<'a>(slot: &mut Option<&'a str>, value: &'a str, name: &str) -> Result<(), String> {
    if slot.replace(value).is_some() {
        return Err(format!("duplicate field '{name}'"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_full_grammar() {
        let q = Query::parse("app=Pele machine=Frontier nodes=512 knob:chemistry=1.5 scenario=x")
            .expect("valid");
        assert_eq!(q.app, "Pele");
        assert_eq!(q.machine, "Frontier");
        assert_eq!(q.nodes, 512);
        assert_eq!(q.knobs, vec![("chemistry".to_string(), 1.5)]);
        assert_eq!(q.scenario, "x");
    }

    #[test]
    fn knob_order_does_not_change_the_key() {
        let a = Query::parse("app=LSMS machine=Summit knob:b=2 knob:a=3").unwrap();
        let b = Query::parse("app=LSMS machine=Summit knob:a=3 knob:b=2").unwrap();
        assert_eq!(a.key(), b.key());
        // ...but a different factor does.
        let c = Query::parse("app=LSMS machine=Summit knob:a=3.0000000001 knob:b=2").unwrap();
        assert_ne!(a.key(), c.key());
    }

    /// The key spells numbers exactly as `fmt` does.
    #[test]
    fn key_numbers_match_their_fmt_spelling() {
        for n in [0, 1, 9, 10, 99, 100, 128, 1024, 4_294_967_295] {
            let mut key = String::new();
            push_decimal(&mut key, n);
            assert_eq!(key, format!("{n}"));
        }
        for bits in [0, 1, 0xf, 0x10, 0x3ff0_0000_0000_0001, u64::MAX] {
            let mut key = String::new();
            push_hex16(&mut key, bits);
            assert_eq!(key, format!("{bits:016x}"));
        }
    }

    #[test]
    fn render_round_trips() {
        let q = Query {
            scenario: "sweep".into(),
            ..Query::new("CoMet", "Frontier")
                .with_nodes(74)
                .with_knob("ccc", 1.25)
                .with_knob("comm", 0.5)
        };
        assert_eq!(Query::parse(&q.render()).unwrap(), q);
        let clean = Query::new("GAMESS", "Summit");
        assert_eq!(Query::parse(&clean.render()).unwrap(), clean);
    }

    #[test]
    fn parse_rejects_malformed_queries() {
        for (text, needle) in [
            ("machine=Frontier", "missing required field 'app'"),
            ("app=Pele", "missing required field 'machine'"),
            (
                "app=Pele machine=Frontier app=LSMS",
                "duplicate field 'app'",
            ),
            ("app=Pele machine=Frontier bogus=1", "unknown field 'bogus'"),
            ("app=Pele machine=Frontier nodes=-3", "not a u32"),
            ("app=Pele machine=Frontier knob:x=zero", "not a number"),
            (
                "app=Pele machine=Frontier knob:x=0",
                "must be finite and positive",
            ),
            (
                "app=Pele machine=Frontier knob:x=1 knob:x=2",
                "duplicate knob 'x'",
            ),
            ("app=Hype machine=Frontier", "unknown application 'Hype'"),
            ("app=Pele machine=Aurora", "unknown machine 'Aurora'"),
            ("app=Pele machine=Frontier naked", "not key=value"),
            ("app=Pele machine=", "empty value"),
            ("app=Pele machine=Frontier knob:a|b=2", "contains '|'"),
            ("app=Pele machine=Frontier scenario=x|y", "contains '|'"),
        ] {
            let err = Query::parse(text).expect_err(text);
            assert!(
                err.contains(needle),
                "{text}: got '{err}', wanted '{needle}'"
            );
        }
    }

    /// Builder-made queries skip the parser's `|` check, so the key
    /// escapes its separator instead.
    #[test]
    fn a_built_scenario_tag_cannot_forge_a_knob_key() {
        let tagged = |q: Query, scenario: &str| Query {
            scenario: scenario.into(),
            ..q
        };
        let knob = tagged(Query::new("GESTS", "Frontier").with_knob("k", 1.0), "s");
        let forged = tagged(Query::new("GESTS", "Frontier"), "k=3ff0000000000000|s");
        assert_eq!(knob.key(), "GESTS|Frontier|0|k=3ff0000000000000|s");
        assert_ne!(knob.key(), forged.key());
        // The escape character is escaped too, so a tag ending in it
        // cannot swallow the separator after it.
        let a = tagged(Query::new("GESTS", "Frontier").with_knob("x\\", 1.0), "|y");
        let b = tagged(Query::new("GESTS", "Frontier").with_knob("x\\|", 1.0), "y");
        assert_ne!(a.key(), b.key());
    }

    /// A tag spelling `<needle>=<factor bits>|` would give a clean query
    /// the key of a knobbed one, whose answer differs, so whichever came
    /// first would answer for both.
    #[test]
    fn a_scenario_tag_cannot_forge_a_knob_key() {
        let knob = Query::parse("app=GESTS machine=Frontier knob:transform=2").unwrap();
        assert_eq!(knob.key(), "GESTS|Frontier|0|transform=4000000000000000|");
        let forged = "app=GESTS machine=Frontier scenario=transform=4000000000000000|";
        let err = Query::parse(forged).expect_err(forged);
        assert!(err.contains("contains '|'"), "{err}");
    }
}
