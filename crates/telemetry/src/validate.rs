//! Dependency-free artifact validators: a small recursive-descent JSON
//! parser plus schema validators for Chrome traces, Prometheus text
//! exposition, collapsed flamegraph stacks, and the hotspot CSV. The
//! vendored `serde_json` shim only serializes, so artifact self-checks
//! (tests, the `profile_export`/`obs_export` gates) parse with these.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// As an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// As a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// As a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// As a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts, so a hostile
/// document cannot overflow the stack (committed artifacts nest ≤ 6 deep).
const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_JSON_DEPTH => self.err("nesting too deep"),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parse an array or object one level deeper.
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(JsonValue::Num(x)),
            _ => self.err(&format!("invalid number '{text}'")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.b.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.b[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one
                    // step. Both delimiters are ASCII, so the run ends on
                    // a char boundary of the source `&str`.
                    let end = self.b[self.pos..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .map_or(self.b.len(), |k| self.pos + k);
                    out.push_str(&self.s[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse a complete JSON document. A document that nests arrays and
/// objects more than 128 deep is an error.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        s,
        b: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return p.err("trailing garbage after JSON document");
    }
    Ok(v)
}

/// What a validated Chrome trace contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Duration (`X`/`B`/`E`) events.
    pub events: usize,
    /// Distinct `tid`s carrying duration events.
    pub tracks: usize,
}

/// Validate a Chrome Trace Event JSON document:
///
/// * the document is a JSON array of objects;
/// * every event's `ph` is `X`, `B`, `E`, or `M`, with `name`/`pid`/`tid`;
/// * per `(pid, tid)`, timestamps are monotonically non-decreasing and
///   `X` durations are finite and non-negative (a serialized NaN arrives
///   as JSON `null` and is rejected as non-numeric);
/// * track mapping: when the trace carries any `thread_name` metadata,
///   every `(pid, tid)` with duration events must be named by exactly one
///   such `M` event (with a string `args.name`);
/// * nested events (via `args.depth`) lie within their parent interval.
pub fn validate_chrome_trace(s: &str) -> Result<ChromeTraceSummary, String> {
    let doc = parse_json(s)?;
    let events = doc.as_array().ok_or("trace must be a JSON array")?;
    // Per-tid cursor: last ts, and a stack of (depth, start, end) intervals.
    type Interval = (u64, f64, f64);
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut open: BTreeMap<(u64, u64), Vec<Interval>> = BTreeMap::new();
    let mut named: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    let mut n_events = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        let pid = ev
            .get("pid")
            .and_then(JsonValue::as_u64)
            .ok_or(format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or(format!("event {i}: missing tid"))?;
        match ph {
            "M" => {
                if name == "thread_name" {
                    ev.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(JsonValue::as_str)
                        .ok_or(format!("event {i}: thread_name metadata missing args.name"))?;
                    *named.entry((pid, tid)).or_insert(0) += 1;
                }
                continue;
            }
            "X" | "B" | "E" => {}
            other => return Err(format!("event {i}: unexpected ph '{other}'")),
        }
        n_events += 1;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or(format!("event {i}: missing or non-numeric ts"))?;
        let key = (pid, tid);
        if let Some(&prev) = last_ts.get(&key) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards (prev {prev}) on tid {tid}"
                ));
            }
        }
        last_ts.insert(key, ts);
        if ph == "X" {
            let dur = ev.get("dur").and_then(JsonValue::as_f64).ok_or(format!(
                "event {i}: X event with missing or non-numeric dur (NaN serializes to null)"
            ))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative dur {dur}"));
            }
            if let Some(depth) = ev
                .get("args")
                .and_then(|a| a.get("depth"))
                .and_then(JsonValue::as_u64)
            {
                let stack = open.entry(key).or_default();
                while stack.last().is_some_and(|&(d, _, _)| d >= depth) {
                    stack.pop();
                }
                if depth > 0 {
                    match stack.last() {
                        Some(&(d, ps, pe)) if d == depth - 1 => {
                            const EPS: f64 = 1e-6; // µs rounding slack
                            if ts + EPS < ps || ts + dur > pe + EPS {
                                return Err(format!(
                                    "event {i}: child [{ts}, {}] escapes parent [{ps}, {pe}]",
                                    ts + dur
                                ));
                            }
                        }
                        _ => {
                            return Err(format!(
                                "event {i}: depth {depth} with no open parent at depth {}",
                                depth - 1
                            ))
                        }
                    }
                }
                stack.push((depth, ts, ts + dur));
            }
        }
    }
    // Track-mapping invariant: a trace that names tracks at all must name
    // every track carrying duration events, exactly once.
    if !named.is_empty() {
        for &(pid, tid) in last_ts.keys() {
            match named.get(&(pid, tid)) {
                None => {
                    return Err(format!(
                    "track (pid {pid}, tid {tid}) has duration events but no thread_name metadata"
                ))
                }
                Some(&n) if n > 1 => {
                    return Err(format!(
                        "track (pid {pid}, tid {tid}) named by {n} thread_name events (want 1)"
                    ))
                }
                _ => {}
            }
        }
    }
    Ok(ChromeTraceSummary {
        events: n_events,
        tracks: last_ts.len(),
    })
}

/// One parsed Prometheus sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Full series name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Labels in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// A parsed Prometheus text-format document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromDoc {
    /// `# TYPE` declarations: family name → kind.
    pub types: BTreeMap<String, String>,
    /// Sample lines in source order.
    pub samples: Vec<PromSample>,
}

impl PromDoc {
    /// The value of the first sample called `name` whose labels equal
    /// `labels` exactly (same pairs, same order).
    pub fn value_labeled(&self, name: &str, labels: &[(String, String)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| s.value)
    }
}

fn prom_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn prom_value(tok: &str) -> Result<f64, String> {
    match tok {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        t => t
            .parse::<f64>()
            .map_err(|_| format!("bad sample value '{t}'")),
    }
}

/// Parse the Prometheus text exposition format: `# TYPE` lines, comments,
/// and `name{label="value",...} value` samples.
pub fn parse_prometheus(s: &str) -> Result<PromDoc, String> {
    let mut doc = PromDoc::default();
    for (ln, raw) in s.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let name = it.next().ok_or(format!("line {ln}: TYPE without name"))?;
                let kind = it.next().ok_or(format!("line {ln}: TYPE without kind"))?;
                if !prom_name_ok(name) {
                    return Err(format!("line {ln}: illegal metric name '{name}'"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {ln}: unknown TYPE kind '{kind}'"));
                }
                if let Some(prev) = doc.types.get(name) {
                    if prev != kind {
                        return Err(format!(
                            "line {ln}: metric '{name}' re-declared as {kind}, was {prev}"
                        ));
                    }
                }
                doc.types.insert(name.to_string(), kind.to_string());
            }
            continue; // other comments are legal and ignored
        }
        // Sample line: name, optional {labels}, value.
        let (head, labels) = match line.find('{') {
            None => {
                let (name, value) = line
                    .split_once(' ')
                    .ok_or(format!("line {ln}: sample without value"))?;
                (name.to_string(), (Vec::new(), value))
            }
            Some(brace) => {
                let name = &line[..brace];
                let rest = &line[brace + 1..];
                let mut labels = Vec::new();
                let mut chars = rest.char_indices().peekable();
                let close = loop {
                    // Parse `key="value"` pairs until the closing brace.
                    let start = match chars.peek() {
                        Some(&(i, '}')) => break i,
                        Some(&(i, _)) => i,
                        None => return Err(format!("line {ln}: unterminated label set")),
                    };
                    let eq = rest[start..]
                        .find('=')
                        .map(|o| start + o)
                        .ok_or(format!("line {ln}: label without '='"))?;
                    let key = rest[start..eq].to_string();
                    if rest.as_bytes().get(eq + 1) != Some(&b'"') {
                        return Err(format!("line {ln}: label value must be quoted"));
                    }
                    let mut val = String::new();
                    let mut i = eq + 2;
                    loop {
                        match rest.as_bytes().get(i) {
                            None => return Err(format!("line {ln}: unterminated label value")),
                            Some(b'"') => break,
                            Some(b'\\') => {
                                match rest.as_bytes().get(i + 1) {
                                    Some(b'"') => val.push('"'),
                                    Some(b'\\') => val.push('\\'),
                                    Some(b'n') => val.push('\n'),
                                    _ => return Err(format!("line {ln}: bad label escape")),
                                }
                                i += 2;
                            }
                            Some(_) => {
                                let ch = rest[i..].chars().next().expect("non-empty");
                                val.push(ch);
                                i += ch.len_utf8();
                            }
                        }
                    }
                    labels.push((key, val));
                    i += 1; // past the closing quote
                    while chars.peek().is_some_and(|&(j, _)| j < i) {
                        chars.next();
                    }
                    if let Some(&(_, ',')) = chars.peek() {
                        chars.next();
                    }
                };
                let after = &rest[close + 1..];
                let value = after
                    .strip_prefix(' ')
                    .ok_or(format!("line {ln}: sample without value"))?;
                (name.to_string(), (labels, value))
            }
        };
        let (labels, value_tok) = labels;
        if !prom_name_ok(&head) {
            return Err(format!("line {ln}: illegal metric name '{head}'"));
        }
        let value = prom_value(value_tok.trim()).map_err(|e| format!("line {ln}: {e}"))?;
        doc.samples.push(PromSample {
            name: head,
            labels,
            value,
        });
    }
    Ok(doc)
}

/// What a validated Prometheus document contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromSummary {
    /// Sample lines.
    pub samples: usize,
    /// Declared metric families.
    pub families: usize,
}

/// Validate Prometheus text output: every sample belongs to a `# TYPE`d
/// family (histogram `_bucket`/`_sum`/`_count` series resolve to their
/// base family), counter values are finite and non-negative, and every
/// histogram family has, **per label set**, strictly increasing `le`
/// edges, non-decreasing cumulative bucket counts, a terminal `+Inf`
/// bucket, and an `+Inf` count that equals the label set's `_count`
/// sample. Labeled series (`name{app="Pele",...}`) are accepted
/// throughout; duplicate `# TYPE` declarations with conflicting kinds are
/// rejected at parse time.
pub fn validate_prometheus(s: &str) -> Result<PromSummary, String> {
    let doc = parse_prometheus(s)?;
    let family_of = |name: &str| -> Option<String> {
        if doc.types.contains_key(name) {
            return Some(name.to_string());
        }
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if doc.types.get(base).map(String::as_str) == Some("histogram") {
                    return Some(base.to_string());
                }
            }
        }
        None
    };
    for sample in &doc.samples {
        let fam = family_of(&sample.name).ok_or(format!(
            "sample '{}' has no # TYPE declaration",
            sample.name
        ))?;
        let kind = doc.types[&fam].as_str();
        if kind == "counter" && !(sample.value.is_finite() && sample.value >= 0.0) {
            return Err(format!(
                "counter '{}' has value {}",
                sample.name, sample.value
            ));
        }
        if kind == "gauge" && sample.value.is_nan() {
            return Err(format!("gauge '{}' is NaN", sample.name));
        }
    }
    for (fam, kind) in &doc.types {
        if kind != "histogram" {
            continue;
        }
        let bucket_name = format!("{fam}_bucket");
        // Buckets group by their labels minus `le`: each label set is an
        // independent cumulative series with its own +Inf/_count/_sum.
        type LabelSet = Vec<(String, String)>;
        let mut groups: Vec<(LabelSet, f64, f64, bool, Option<f64>)> = Vec::new();
        for sample in doc.samples.iter().filter(|s| s.name == bucket_name) {
            let mut le = None;
            let mut rest: LabelSet = Vec::new();
            for (k, v) in &sample.labels {
                if k == "le" {
                    if le.is_some() {
                        return Err(format!("histogram '{fam}': bucket with two le labels"));
                    }
                    le = Some(v.clone());
                } else {
                    rest.push((k.clone(), v.clone()));
                }
            }
            let le = le.ok_or(format!("histogram '{fam}': bucket without le label"))?;
            let edge = prom_value(&le).map_err(|e| format!("histogram '{fam}': {e}"))?;
            let group = match groups.iter_mut().find(|(g, ..)| *g == rest) {
                Some(g) => g,
                None => {
                    groups.push((rest, f64::NEG_INFINITY, 0.0, false, None));
                    groups.last_mut().expect("just pushed")
                }
            };
            let (_, prev_edge, prev_cum, saw_inf, inf_count) = group;
            if *saw_inf {
                return Err(format!("histogram '{fam}': bucket after +Inf"));
            }
            if edge == f64::INFINITY {
                *saw_inf = true;
                *inf_count = Some(sample.value);
            } else if edge <= *prev_edge {
                return Err(format!(
                    "histogram '{fam}': le edges not increasing at {edge}"
                ));
            }
            if sample.value < *prev_cum {
                return Err(format!("histogram '{fam}': cumulative count decreases"));
            }
            *prev_edge = edge;
            *prev_cum = sample.value;
        }
        if groups.is_empty() {
            return Err(format!("histogram '{fam}': missing +Inf bucket"));
        }
        for (labels, _, _, _, inf_count) in &groups {
            let inf = inf_count.ok_or(format!("histogram '{fam}': missing +Inf bucket"))?;
            let count = doc
                .value_labeled(&format!("{fam}_count"), labels)
                .ok_or(format!("histogram '{fam}': missing _count for a label set"))?;
            doc.value_labeled(&format!("{fam}_sum"), labels)
                .ok_or(format!("histogram '{fam}': missing _sum for a label set"))?;
            if inf != count {
                return Err(format!(
                    "histogram '{fam}': +Inf bucket {inf} != _count {count}"
                ));
            }
        }
    }
    Ok(PromSummary {
        samples: doc.samples.len(),
        families: doc.types.len(),
    })
}

/// Validate collapsed flamegraph stacks: every line is
/// `frame(;frame)* <weight>`, weights are positive integers, frames are
/// non-empty and free of `;`-injection (an empty frame means a stray
/// separator). Returns the number of stack lines.
pub fn validate_folded(s: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    for (ln, raw) in s.lines().enumerate() {
        if raw.is_empty() {
            continue;
        }
        let (stack, weight) = raw
            .rsplit_once(' ')
            .ok_or(format!("line {ln}: no weight field"))?;
        let w: u64 = weight
            .parse()
            .map_err(|_| format!("line {ln}: bad weight '{weight}'"))?;
        if w == 0 {
            return Err(format!("line {ln}: zero-weight stack"));
        }
        let frames: Vec<&str> = stack.split(';').collect();
        if frames.len() < 2 {
            return Err(format!(
                "line {ln}: want at least track;span, got '{stack}'"
            ));
        }
        if frames.iter().any(|f| f.is_empty()) {
            return Err(format!("line {ln}: empty frame in '{stack}'"));
        }
        lines += 1;
    }
    Ok(lines)
}

/// Parse one RFC-4180 CSV document into records of fields. Rejects
/// unescaped quotes inside unquoted fields and unterminated quoted fields
/// — exactly the damage an exporter that forgets to quote produces.
pub fn parse_csv(s: &str) -> Result<Vec<Vec<String>>, String> {
    let b = s.as_bytes();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] == b'"' {
            // Quoted field: read to the closing quote ("" is a literal ").
            i += 1;
            loop {
                match b.get(i) {
                    None => return Err("unterminated quoted field".into()),
                    Some(b'"') if b.get(i + 1) == Some(&b'"') => {
                        field.push('"');
                        i += 2;
                    }
                    Some(b'"') => {
                        i += 1;
                        break;
                    }
                    Some(_) => {
                        let ch = s[i..].chars().next().expect("non-empty");
                        field.push(ch);
                        i += ch.len_utf8();
                    }
                }
            }
            match b.get(i) {
                None | Some(b',') | Some(b'\n') => {}
                Some(_) => return Err(format!("garbage after closing quote at byte {i}")),
            }
        } else {
            while i < b.len() && !matches!(b[i], b',' | b'\n') {
                if b[i] == b'"' {
                    return Err(format!("unescaped quote in unquoted field at byte {i}"));
                }
                let ch = s[i..].chars().next().expect("non-empty");
                field.push(ch);
                i += ch.len_utf8();
            }
        }
        match b.get(i) {
            Some(b',') => {
                row.push(std::mem::take(&mut field));
                i += 1;
            }
            Some(b'\n') => {
                row.push(std::mem::take(&mut field));
                rows.push(std::mem::take(&mut row));
                i += 1;
            }
            None => break,
            Some(_) => unreachable!("field loop stops at separators"),
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

/// Validate the hotspot CSV artifact: RFC-4180 parse, exact header, five
/// fields per row, integer `calls`, non-negative `total_us`, and
/// `share_pct` within [0, 100]. Returns the number of data rows.
pub fn validate_hotspot_csv(s: &str) -> Result<usize, String> {
    let rows = parse_csv(s)?;
    let header: Vec<&str> = rows
        .first()
        .map(|r| r.iter().map(String::as_str).collect())
        .unwrap_or_default();
    if header != ["name", "category", "calls", "total_us", "share_pct"] {
        return Err(format!("bad header {header:?}"));
    }
    for (ln, row) in rows.iter().enumerate().skip(1) {
        if row.len() != 5 {
            return Err(format!(
                "row {ln}: {} fields (want 5) — unescaped name?",
                row.len()
            ));
        }
        row[2]
            .parse::<u64>()
            .map_err(|_| format!("row {ln}: bad calls '{}'", row[2]))?;
        let total: f64 = row[3]
            .parse()
            .map_err(|_| format!("row {ln}: bad total_us '{}'", row[3]))?;
        if total.is_nan() || total < 0.0 {
            return Err(format!("row {ln}: negative total_us {total}"));
        }
        let share: f64 = row[4]
            .parse()
            .map_err(|_| format!("row {ln}: bad share_pct '{}'", row[4]))?;
        if !(0.0..=100.000001).contains(&share) {
            return Err(format!("row {ln}: share_pct {share} outside [0, 100]"));
        }
    }
    Ok(rows.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_machine::SimTime;

    #[test]
    fn parses_scalars_strings_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5e3, true, null, "x\n\"y\""], "b": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[4].as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(BTreeMap::new())));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse_json(&nest(MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&nest(MAX_JSON_DEPTH + 1)).is_err());
        assert!(parse_json(&"[".repeat(100_000)).is_err());
        assert!(parse_json(&r#"{"a":"#.repeat(100_000)).is_err());
    }

    #[test]
    fn strings_round_trip_multibyte_and_unicode_escapes() {
        let v = parse_json(r#"["π·é 🚀 tail", "éA\u0001", "a\"é\\b"]"#).unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0].as_str(), Some("π·é 🚀 tail"));
        assert_eq!(a[1].as_str(), Some("éA\u{1}"));
        assert_eq!(a[2].as_str(), Some("a\"é\\b"));
        assert!(parse_json(r#"["\u00"]"#).is_err());
        assert!(parse_json(r#"["open"#).is_err());

        // What the trace writer escapes, the parser gives back intact.
        let name = "lane/é\"q\\\u{1}\t🚀";
        let c = crate::TelemetryCollector::new();
        let t = c.track(name, crate::TrackKind::Host);
        c.complete(
            t,
            name,
            crate::SpanCat::Phase,
            SimTime::ZERO,
            SimTime::from_secs(1e-6),
        );
        let doc = parse_json(&c.chrome_trace()).unwrap();
        let names: Vec<&str> = doc
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        assert!(names.contains(&name), "{names:?}");
    }

    #[test]
    fn large_traces_validate_in_linear_time() {
        // ~50k spans, the size of an executed DNS step trace; the string
        // scan used to be quadratic in the document length.
        let c = crate::TelemetryCollector::new();
        let tracks: Vec<_> = (0..8)
            .map(|r| c.track(&format!("rank{r}"), crate::TrackKind::Host))
            .collect();
        let spans = 50_000;
        for i in 0..spans {
            let start = SimTime::from_secs((i / 8) as f64 * 1e-6);
            let end = SimTime::from_secs((i / 8) as f64 * 1e-6 + 5e-7);
            c.complete(
                tracks[i % 8],
                format!("fft/pass {i} é"),
                crate::SpanCat::Phase,
                start,
                end,
            );
        }
        let summary = validate_chrome_trace(&c.chrome_trace()).expect("valid trace");
        assert_eq!(summary.events, spans);
        assert_eq!(summary.tracks, 8);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("[1] x").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn validator_rejects_backwards_timestamps() {
        let bad = r#"[
          {"name":"a","ph":"X","ts":5,"dur":1,"pid":1,"tid":1},
          {"name":"b","ph":"X","ts":2,"dur":1,"pid":1,"tid":1}
        ]"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn validator_rejects_escaping_children() {
        let bad = r#"[
          {"name":"p","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{"depth":0}},
          {"name":"c","ph":"X","ts":5,"dur":50,"pid":1,"tid":1,"args":{"depth":1}}
        ]"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn validator_accepts_independent_tids() {
        let ok = r#"[
          {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"gpu0"}},
          {"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"gpu1"}},
          {"name":"a","ph":"X","ts":0,"dur":4,"pid":1,"tid":1},
          {"name":"b","ph":"X","ts":0,"dur":4,"pid":1,"tid":2},
          {"name":"c","ph":"B","ts":6,"pid":1,"tid":1},
          {"name":"c","ph":"E","ts":8,"pid":1,"tid":1}
        ]"#;
        let s = validate_chrome_trace(ok).unwrap();
        assert_eq!(s.events, 4);
        assert_eq!(s.tracks, 2);
    }

    #[test]
    fn validator_requires_thread_names_for_every_active_track() {
        let bad = r#"[
          {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"gpu0"}},
          {"name":"a","ph":"X","ts":0,"dur":4,"pid":1,"tid":1},
          {"name":"b","ph":"X","ts":0,"dur":4,"pid":1,"tid":2}
        ]"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("no thread_name metadata"), "{err}");
        // A fully-unnamed trace is still fine (naming is opt-in).
        let ok = r#"[
          {"name":"a","ph":"X","ts":0,"dur":4,"pid":1,"tid":1},
          {"name":"b","ph":"X","ts":0,"dur":4,"pid":1,"tid":2}
        ]"#;
        assert!(validate_chrome_trace(ok).is_ok());
    }

    #[test]
    fn validator_rejects_duplicate_thread_names_for_one_track() {
        let bad = r#"[
          {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"gpu0"}},
          {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"gpu0 again"}},
          {"name":"a","ph":"X","ts":0,"dur":4,"pid":1,"tid":1}
        ]"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("named by 2 thread_name events"), "{err}");
    }

    #[test]
    fn validator_rejects_nan_and_negative_durations() {
        // A NaN duration serializes to JSON null (the shim writes null for
        // non-finite floats) — must be rejected, not skipped.
        let nan = r#"[{"name":"a","ph":"X","ts":0,"dur":null,"pid":1,"tid":1}]"#;
        let err = validate_chrome_trace(nan).unwrap_err();
        assert!(err.contains("non-numeric dur"), "{err}");
        let neg = r#"[{"name":"a","ph":"X","ts":5,"dur":-1,"pid":1,"tid":1}]"#;
        let err = validate_chrome_trace(neg).unwrap_err();
        assert!(err.contains("negative dur"), "{err}");
        let nan_ts = r#"[{"name":"a","ph":"X","ts":null,"dur":1,"pid":1,"tid":1}]"#;
        let err = validate_chrome_trace(nan_ts).unwrap_err();
        assert!(err.contains("non-numeric ts"), "{err}");
        // Raw NaN literals are not JSON at all.
        assert!(parse_json("[NaN]").is_err());
    }

    #[test]
    fn prometheus_round_trip_and_histogram_invariants() {
        let text = "# TYPE exa_tasks_total counter\nexa_tasks_total 42\n\
                    # TYPE exa_occupancy gauge\nexa_occupancy 0.93\n\
                    # TYPE exa_task_run_s histogram\n\
                    exa_task_run_s_bucket{le=\"0.001\"} 3\n\
                    exa_task_run_s_bucket{le=\"0.002\"} 7\n\
                    exa_task_run_s_bucket{le=\"+Inf\"} 9\n\
                    exa_task_run_s_sum 0.014\nexa_task_run_s_count 9\n";
        let summary = validate_prometheus(text).expect("valid document");
        assert_eq!(summary.families, 3);
        let doc = parse_prometheus(text).unwrap();
        assert_eq!(doc.value_labeled("exa_tasks_total", &[]), Some(42.0));
        assert_eq!(doc.value_labeled("exa_occupancy", &[]), Some(0.93));
        let buckets: Vec<_> = doc
            .samples
            .iter()
            .filter(|s| s.name == "exa_task_run_s_bucket")
            .collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(
            buckets[0].labels,
            vec![("le".to_string(), "0.001".to_string())]
        );
    }

    #[test]
    fn prometheus_validator_rejects_broken_histograms() {
        let no_type = "exa_x 1\n";
        assert!(validate_prometheus(no_type)
            .unwrap_err()
            .contains("no # TYPE"));
        let decreasing = "# TYPE exa_h histogram\n\
                          exa_h_bucket{le=\"1\"} 5\nexa_h_bucket{le=\"2\"} 3\n\
                          exa_h_bucket{le=\"+Inf\"} 5\nexa_h_sum 1\nexa_h_count 5\n";
        assert!(validate_prometheus(decreasing)
            .unwrap_err()
            .contains("decreases"));
        let inf_mismatch = "# TYPE exa_h histogram\n\
                            exa_h_bucket{le=\"+Inf\"} 4\nexa_h_sum 1\nexa_h_count 5\n";
        assert!(validate_prometheus(inf_mismatch)
            .unwrap_err()
            .contains("!= _count"));
        let neg_counter = "# TYPE exa_c counter\nexa_c -1\n";
        assert!(validate_prometheus(neg_counter)
            .unwrap_err()
            .contains("value -1"));
    }

    #[test]
    fn prometheus_validator_accepts_labeled_series_per_label_set() {
        // Two label sets under one histogram family, each with its own
        // cumulative series, +Inf, _sum, and _count — plus a labeled
        // counter next to its unlabeled base sample.
        let text = "# TYPE exa_serve_latency_s histogram\n\
                    exa_serve_latency_s_bucket{app=\"Pele\",le=\"0.001\"} 2\n\
                    exa_serve_latency_s_bucket{app=\"Pele\",le=\"+Inf\"} 3\n\
                    exa_serve_latency_s_sum{app=\"Pele\"} 0.004\n\
                    exa_serve_latency_s_count{app=\"Pele\"} 3\n\
                    exa_serve_latency_s_bucket{app=\"CoMet\",le=\"0.002\"} 1\n\
                    exa_serve_latency_s_bucket{app=\"CoMet\",le=\"+Inf\"} 1\n\
                    exa_serve_latency_s_sum{app=\"CoMet\"} 0.002\n\
                    exa_serve_latency_s_count{app=\"CoMet\"} 1\n\
                    # TYPE exa_serve_requests_total counter\n\
                    exa_serve_requests_total 4\n\
                    exa_serve_requests_total{app=\"Pele\",result=\"hit\"} 3\n";
        let summary = validate_prometheus(text).expect("labeled document validates");
        assert_eq!(summary.families, 2);
        let doc = parse_prometheus(text).unwrap();
        let pele = vec![("app".to_string(), "Pele".to_string())];
        assert_eq!(
            doc.value_labeled("exa_serve_latency_s_count", &pele),
            Some(3.0)
        );
        // A label set whose +Inf disagrees with its _count still fails.
        let broken = "# TYPE exa_h histogram\n\
                      exa_h_bucket{app=\"A\",le=\"+Inf\"} 2\n\
                      exa_h_sum{app=\"A\"} 1\nexa_h_count{app=\"A\"} 3\n\
                      exa_h_bucket{le=\"+Inf\"} 1\nexa_h_sum 1\nexa_h_count 1\n";
        assert!(validate_prometheus(broken)
            .unwrap_err()
            .contains("!= _count"));
        // A label set missing its own _count fails even when another set
        // has one.
        let missing = "# TYPE exa_h histogram\n\
                       exa_h_bucket{app=\"A\",le=\"+Inf\"} 2\n\
                       exa_h_bucket{le=\"+Inf\"} 1\nexa_h_sum 1\nexa_h_count 1\n";
        assert!(validate_prometheus(missing)
            .unwrap_err()
            .contains("missing _count"));
    }

    #[test]
    fn prometheus_parser_rejects_conflicting_duplicate_types() {
        let conflicting = "# TYPE exa_x counter\nexa_x 1\n# TYPE exa_x gauge\nexa_x 2\n";
        let err = parse_prometheus(conflicting).unwrap_err();
        assert!(err.contains("re-declared"), "{err}");
        assert!(validate_prometheus(conflicting).is_err());
        // An identical re-declaration is harmless and stays accepted.
        let harmless = "# TYPE exa_x counter\nexa_x 1\n# TYPE exa_x counter\nexa_x 2\n";
        assert!(parse_prometheus(harmless).is_ok());
    }

    #[test]
    fn folded_validator_accepts_stacks_and_rejects_damage() {
        let ok = "pool/worker0;chem_substep;lu4 1200\npool/worker0;chem_substep 40\n";
        assert_eq!(validate_folded(ok).unwrap(), 2);
        assert!(validate_folded("lonely 5\n")
            .unwrap_err()
            .contains("at least"));
        assert!(validate_folded("a;;b 5\n")
            .unwrap_err()
            .contains("empty frame"));
        assert!(validate_folded("a;b zero\n")
            .unwrap_err()
            .contains("bad weight"));
        assert!(validate_folded("a;b 0\n")
            .unwrap_err()
            .contains("zero-weight"));
    }

    #[test]
    fn csv_validator_accepts_quoted_and_rejects_unescaped() {
        let ok = "name,category,calls,total_us,share_pct\n\
                  \"axpy, fused \"\"hot\"\"\",kernel,3,10.000,80.00\n\
                  plain,kernel,1,2.500,20.00\n";
        assert_eq!(validate_hotspot_csv(ok).unwrap(), 2);
        let rows = parse_csv(ok).unwrap();
        assert_eq!(rows[1][0], "axpy, fused \"hot\"");
        // An exporter that forgot to quote: the comma splits the name into
        // a sixth field.
        let unescaped = "name,category,calls,total_us,share_pct\n\
                         axpy, fused,kernel,3,10.000,80.00\n";
        assert!(validate_hotspot_csv(unescaped)
            .unwrap_err()
            .contains("unescaped"));
        // A raw quote mid-field is also rejected.
        let raw_quote = "name,category,calls,total_us,share_pct\n\
                         axpy \"hot\",kernel,3,10.000,80.00\n";
        assert!(parse_csv(raw_quote).is_err());
    }

    #[test]
    fn validator_rejects_metadata_without_args_name() {
        let bad = r#"[
          {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{}},
          {"name":"a","ph":"X","ts":0,"dur":4,"pid":1,"tid":1}
        ]"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("missing args.name"), "{err}");
    }
}
