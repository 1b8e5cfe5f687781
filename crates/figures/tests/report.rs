//! `figures report` over the whole diagnostic grid under `--strict`: every
//! application × class × platform at test scale and four processors (128
//! cells, each run once with every layer on and once without, to check the
//! layers are invisible), then the `--json` envelope parsed and checked
//! cell by cell.

use apps::{App, OptClass};
use figures::experiments::run_args;
use figures::FAMILIES;

/// A JSON value: just enough of JSON to read the envelope.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        let Json::Obj(fields) = self else {
            panic!("looking up {key} in a non-object");
        };
        match fields.iter().find(|(k, _)| k == key) {
            Some((_, v)) => v,
            None => panic!("no field {key}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            v => panic!("not a string: {v:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            v => panic!("not a number: {v:?}"),
        }
    }
}

/// A strict recursive-descent parser: panics, naming the byte offset, on
/// anything that is not JSON.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after the value");
        v
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn next(&mut self) -> u8 {
        self.ws();
        let c = *self.s.get(self.i).expect("unexpected end of JSON");
        self.i += 1;
        c
    }

    fn literal(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    assert_eq!(self.next(), b':', "expected : at byte {}", self.i);
                    fields.push((key, self.value()));
                    match self.next() {
                        b',' => {}
                        b'}' => return Json::Obj(fields),
                        c => panic!("expected , or }} at byte {}, got {}", self.i, c as char),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    match self.next() {
                        b',' => {}
                        b']' => return Json::Arr(items),
                        c => panic!("expected , or ] at byte {}, got {}", self.i, c as char),
                    }
                }
            }
            Some(b'"') => Json::Str(self.string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| b"+-.eE0123456789".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad value at byte {start}")),
                )
            }
        }
    }

    fn string(&mut self) -> String {
        assert_eq!(self.s[self.i], b'"', "expected a string at byte {}", self.i);
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).expect("UTF-8 string"),
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    let ch = match e {
                        b'"' | b'\\' | b'/' => e as char,
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            self.i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).expect("\\u hex"))
                                .expect("a scalar value")
                        }
                        _ => panic!("bad escape at byte {}", self.i),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c if c < 0x20 => panic!("raw control character at byte {}", self.i),
                c => out.push(c),
            }
        }
    }
}

#[test]
fn parser_reads_json() {
    let v = Parser::parse(
        r#" {"a": [1, -2.5e1, "x\"\\\u0001"], "b": null, "c": {}, "d": [true, false]} "#,
    );
    assert_eq!(
        v.get("a"),
        &Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(-25.0),
            Json::Str("x\"\\\u{1}".into()),
        ])
    );
    assert_eq!(v.get("b"), &Json::Null);
    assert_eq!(v.get("c"), &Json::Obj(vec![]));
    assert_eq!(
        v.get("d"),
        &Json::Arr(vec![Json::Bool(true), Json::Bool(false)])
    );
}

#[test]
fn whole_grid_strict_envelope() {
    let path = std::env::temp_dir().join(format!("figures-report-{}.json", std::process::id()));
    let args = [
        "report",
        "--scale",
        "test",
        "--procs",
        "4",
        "--app",
        "all",
        "--class",
        "all",
        "--platform",
        "all",
        "--strict",
        "--json",
    ]
    .into_iter()
    .map(String::from)
    .chain([path.to_str().expect("a unicode temp path").to_string()])
    .collect::<Vec<_>>();
    run_args(&args).expect("the report runs");
    let text = std::fs::read_to_string(&path).expect("the envelope was written");
    std::fs::remove_file(&path).expect("remove the envelope");

    let env = Parser::parse(&text);
    assert_eq!(env.get("scale").str(), "test");
    assert_eq!(env.get("nprocs").num(), 4.0);
    let Json::Arr(cells) = env.get("cells") else {
        panic!("cells is not an array");
    };
    let mut expected = Vec::new();
    for app in App::ALL {
        for class in OptClass::ALL {
            for pf in FAMILIES {
                expected.push((app.name(), class.label(), pf.name()));
            }
        }
    }
    assert_eq!(cells.len(), expected.len());
    for (cell, &(app, class, pf)) in cells.iter().zip(&expected) {
        // Grid order, so each cell is named exactly once.
        assert_eq!(
            (
                cell.get("app").str(),
                cell.get("class").str(),
                cell.get("platform").str()
            ),
            (app, class, pf)
        );
        let what = format!("{app}/{class} on {pf}");
        assert_eq!(cell.get("dropped").num(), 0.0, "{what}");
        assert_eq!(
            cell.get("critpath").get("path").num(),
            cell.get("end").num(),
            "{what}: critical path != end"
        );
        let page_based = matches!(pf, "SVM" | "TMK");
        match cell.get("sharing") {
            Json::Obj(_) => assert!(
                page_based,
                "{what}: a sharing profile off a page-based platform"
            ),
            Json::Null => assert!(!page_based, "{what}: no sharing profile"),
            v => panic!("{what}: sharing is {v:?}"),
        }
        assert!(
            cell.get("metrics").get("interval").num() > 0.0,
            "{what}: metrics"
        );
        assert_eq!(
            cell.get("advisor").get("end").num(),
            cell.get("end").num(),
            "{what}"
        );
    }
}
