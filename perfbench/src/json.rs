//! Reads `BENCHMARK.json` and the result lines of child runs into
//! [`mpart_obs::Json`], and writes result lines with it.

use mpart_obs::Json;

/// Read access to parsed documents.
pub trait Read {
    /// Member `key` of an object.
    fn get(&self, key: &str) -> Option<&Json>;
    /// The number, if this is one.
    fn num(&self) -> Option<f64>;
    /// The string, if this is one.
    fn text(&self) -> Option<&str>;
    /// The elements, if this is an array.
    fn arr(&self) -> &[Json];
}

impl Read for Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match *self {
            Json::F64(n) => Some(n),
            Json::U64(n) => Some(n as f64),
            Json::I64(n) => Some(n as f64),
            _ => None,
        }
    }

    fn text(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::F64)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
            let mut chars = rest.char_indices();
            match chars.next() {
                None => return Err("unterminated string".into()),
                Some((_, '"')) => {
                    self.i += 1;
                    return Ok(out);
                }
                Some((_, '\\')) => {
                    let (_, e) = chars.next().ok_or("unterminated escape")?;
                    self.i += 2;
                    match e {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => out.push(other),
                    }
                }
                Some((_, c)) => {
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }
}

/// One named metric of a result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metric = |m: &Metric| {
        let fields = vec![("value".into(), Json::F64(m.value)), ("unit".into(), Json::str(m.unit))];
        (m.name.to_string(), Json::Obj(fields))
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::U64(attempted)),
        ("failed".into(), Json::U64(failed)),
        ("metrics".into(), Json::Obj(metrics.iter().map(metric).collect())),
    ])
    .render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric { name: "lat_p50_us", value: 61.25, unit: "us" },
                Metric { name: "setup_s", value: 0.0812, unit: "s" },
            ],
        );
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Read::num), Some(1000.0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.get("setup_s").and_then(|v| v.get("value")).and_then(Read::num), Some(0.0812));
        assert_eq!(
            m.get("lat_p50_us").and_then(|v| v.get("unit")).and_then(Read::text),
            Some("us")
        );
    }

    #[test]
    fn parses_nested_documents_with_escapes() {
        let doc = parse(r#" {"a": [1, -2.5e3, true, null], "b": "x\"yA", "c": {}} "#).unwrap();
        assert_eq!(doc.get("a").unwrap().arr().len(), 4);
        assert_eq!(doc.get("a").unwrap().arr()[1], Json::F64(-2500.0));
        assert_eq!(doc.get("b").and_then(Read::text), Some("x\"yA"));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2] x").is_err());
    }
}
