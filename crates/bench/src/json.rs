//! The one JSON writer behind every committed `BENCH_*.json`.

use std::fmt::{Display, Write as _};

/// A JSON value, laid out the way the `BENCH_*.json` files are: the
/// document and every array span lines, one entry per line; any other
/// object spans lines only when it holds an array.
pub enum Json {
    /// A number, `true`, `false` or `null`, as the caller formatted it.
    Raw(String),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in output order.
    Obj(Vec<(&'static str, Json)>),
}

/// `obj! { "key": value, … }` is a [`Json::Obj`] with its keys in order.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key, $value)),*])
    };
}

/// A value as it displays.
pub fn raw(v: impl Display) -> Json {
    Json::Raw(v.to_string())
}

/// A number with `places` decimals.
pub fn fixed(v: f64, places: usize) -> Json {
    Json::Raw(format!("{v:.places$}"))
}

impl Json {
    /// The whole document, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out + "\n"
    }

    fn write(&self, out: &mut String, indent: usize, spread: bool) {
        let (open, close, entries): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Raw(s) => return out.push_str(s),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' | '\\' => out.extend(['\\', c]),
                        '\n' => out.push_str("\\n"),
                        c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                return out.push('"');
            }
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(kv) => ('{', '}', kv.iter().map(|(k, v)| (Some(*k), v)).collect()),
        };
        let spread = spread || open == '[' || entries.iter().any(|e| matches!(e.1, Json::Arr(_)));
        let (first, sep) = if spread { ("\n", ",\n") } else { ("", ", ") };
        let pad = " ".repeat(if spread { indent + 2 } else { 0 });
        out.push(open);
        for (i, (key, value)) in entries.into_iter().enumerate() {
            out.push_str(if i == 0 { first } else { sep });
            out.push_str(&pad);
            if let Some(key) = key {
                let _ = write!(out, "\"{key}\": ");
            }
            value.write(out, indent + 2, false);
        }
        if spread {
            let _ = write!(out, "\n{}", " ".repeat(indent));
        }
        out.push(close);
    }
}
