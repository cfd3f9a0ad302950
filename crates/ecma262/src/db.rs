//! The structured specification database (Figure 4).
//!
//! The parser turns pseudo-code sections into [`ApiSpec`] records: per
//! parameter, an inferred conversion **type**, the **boundary values** worth
//! probing, and the textual **conditions** extracted from the algorithm
//! steps. The database serializes to the JSON shape shown in Figure 4(b).

use std::collections::{BTreeMap, HashMap};

/// The conversion type the algorithm applies to a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamType {
    /// `ToInteger` / `ToInt32` / `ToUint32` / `ToUint16` / `ToLength`.
    Integer,
    /// `ToNumber`.
    Number,
    /// `ToString`.
    String,
    /// `ToBoolean`.
    Boolean,
    /// `ToObject` / `ToPropertyDescriptor` / object-typed.
    Object,
    /// Callable expected (`comparefn`, `mapfn`, `reviver`, `replacer`).
    Function,
    /// No conversion visible in the steps.
    Any,
}

impl ParamType {
    /// JSON type tag (Figure 4 uses `"integer"` etc.).
    pub fn as_str(self) -> &'static str {
        match self {
            ParamType::Integer => "integer",
            ParamType::Number => "number",
            ParamType::String => "string",
            ParamType::Boolean => "boolean",
            ParamType::Object => "object",
            ParamType::Function => "function",
            ParamType::Any => "any",
        }
    }
}

/// One boundary value worth assigning to a parameter (Figure 4's `values`).
#[derive(Debug, Clone, PartialEq)]
pub enum BoundaryValue {
    /// `undefined`
    Undefined,
    /// `null`
    Null,
    /// `NaN`
    NaN,
    /// A specific number (`0`, `1`, `-1`, bound ± 1, …).
    Number(f64),
    /// `+Infinity` / `-Infinity`.
    Infinity(bool),
    /// A string probe (`""`, `"abc"`, `"123"`).
    Str(&'static str),
    /// `true` / `false`.
    Bool(bool),
}

impl BoundaryValue {
    /// JS source text of the value.
    pub fn to_js(&self) -> String {
        match self {
            BoundaryValue::Undefined => "undefined".into(),
            BoundaryValue::Null => "null".into(),
            BoundaryValue::NaN => "NaN".into(),
            BoundaryValue::Number(n) => comfort_syntax::printer::fmt_number(*n),
            BoundaryValue::Infinity(pos) => {
                if *pos {
                    "Infinity".into()
                } else {
                    "-Infinity".into()
                }
            }
            BoundaryValue::Str(s) => format!("{s:?}"),
            BoundaryValue::Bool(b) => b.to_string(),
        }
    }

    /// JSON rendering for the Figure 4 dump.
    fn to_json(&self) -> String {
        match self {
            BoundaryValue::Undefined => "\"undefined\"".into(),
            BoundaryValue::Null => "\"null\"".into(),
            BoundaryValue::NaN => "\"NaN\"".into(),
            BoundaryValue::Number(n) => comfort_syntax::printer::fmt_number(*n),
            BoundaryValue::Infinity(pos) => {
                if *pos {
                    "\"Infinity\"".into()
                } else {
                    "\"-Infinity\"".into()
                }
            }
            BoundaryValue::Str(s) => format!("{s:?}"),
            BoundaryValue::Bool(b) => b.to_string(),
        }
    }
}

/// A parameter rule.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter name from the header.
    pub name: String,
    /// `true` for trailing rest parameters (`value1, value2` families).
    pub variadic: bool,
    /// Inferred conversion type.
    pub ty: ParamType,
    /// Boundary values to probe.
    pub values: Vec<BoundaryValue>,
    /// Extracted conditions (`"length === undefined"`, `"start < 0"`, …).
    pub conditions: Vec<String>,
}

/// One API's extracted rules (one AST in Figure 4(a)).
#[derive(Debug, Clone)]
pub struct ApiSpec {
    /// Canonical API name (`"String.prototype.substr"`).
    pub name: String,
    /// Parameter rules in positional order.
    pub params: Vec<ParamSpec>,
    /// Steps that can throw, as `(error kind, condition text)`.
    pub throws: Vec<(String, String)>,
    /// Total number of algorithm steps parsed.
    pub step_count: usize,
}

impl ApiSpec {
    /// The method name without the receiver path (`"substr"`).
    pub fn short_name(&self) -> &str {
        self.name.rsplit('.').next().unwrap_or(&self.name)
    }

    /// Serializes to the Figure 4(b) JSON shape.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:?}: [", self.name));
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": {:?}, \"type\": {:?}, \"values\": [{}], \"conditions\": [{}]}}",
                p.name,
                p.ty.as_str(),
                p.values.iter().map(|v| v.to_json()).collect::<Vec<_>>().join(", "),
                p.conditions.iter().map(|c| format!("{c:?}")).collect::<Vec<_>>().join(", "),
            ));
        }
        out.push(']');
        out
    }
}

/// The whole database: API name → spec.
#[derive(Debug, Clone, Default)]
pub struct SpecDb {
    specs: BTreeMap<String, ApiSpec>,
    /// Short method name → the lexicographically first full name that has
    /// it (`"fill"` → `"%TypedArray%.prototype.fill"`).
    by_short_name: HashMap<String, String>,
}

impl SpecDb {
    /// Builds an empty database.
    pub fn new() -> Self {
        SpecDb::default()
    }

    /// Inserts a spec (replacing any previous entry of the same name).
    pub fn insert(&mut self, spec: ApiSpec) {
        let first = self
            .by_short_name
            .entry(spec.short_name().to_string())
            .or_insert_with(|| spec.name.clone());
        if spec.name < *first {
            first.clone_from(&spec.name);
        }
        self.specs.insert(spec.name.clone(), spec);
    }

    /// Looks up by canonical name (`"String.prototype.substr"`).
    pub fn get(&self, name: &str) -> Option<&ApiSpec> {
        self.specs.get(name)
    }

    /// Looks up by *short* method name (`"substr"`), as the test-data
    /// generator sees call sites (Algorithm 1 line 5: `getFuncName`).
    /// Returns the first match in lexicographic order.
    pub fn get_by_short_name(&self, short: &str) -> Option<&ApiSpec> {
        self.by_short_name.get(short).and_then(|name| self.specs.get(name))
    }

    /// Number of APIs in the database.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if no APIs are recorded.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterates all specs in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ApiSpec> {
        self.specs.values()
    }

    /// Serializes the whole database in the Figure 4(b) JSON shape.
    pub fn to_json(&self) -> String {
        let body = self.specs.values().map(ApiSpec::to_json).collect::<Vec<_>>().join(",\n  ");
        format!("{{\n  {body}\n}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ApiSpec {
        ApiSpec {
            name: "String.prototype.substr".into(),
            params: vec![
                ParamSpec {
                    name: "start".into(),
                    variadic: false,
                    ty: ParamType::Integer,
                    values: vec![
                        BoundaryValue::Number(1.0),
                        BoundaryValue::Number(-1.0),
                        BoundaryValue::NaN,
                    ],
                    conditions: vec!["start < 0".into()],
                },
                ParamSpec {
                    name: "length".into(),
                    variadic: false,
                    ty: ParamType::Integer,
                    values: vec![BoundaryValue::Undefined, BoundaryValue::NaN],
                    conditions: vec!["length === undefined".into()],
                },
            ],
            throws: vec![],
            step_count: 12,
        }
    }

    #[test]
    fn json_matches_figure4_shape() {
        let json = sample().to_json();
        assert!(json.contains("\"String.prototype.substr\": ["));
        assert!(json.contains("\"name\": \"start\""));
        assert!(json.contains("\"type\": \"integer\""));
        assert!(json.contains("\"NaN\""));
        assert!(json.contains("\"length === undefined\""));
    }

    #[test]
    fn short_name_lookup() {
        let mut db = SpecDb::new();
        db.insert(sample());
        assert!(db.get("String.prototype.substr").is_some());
        assert!(db.get_by_short_name("substr").is_some());
        assert!(db.get_by_short_name("nope").is_none());
        assert_eq!(db.len(), 1);
    }

    /// The lookup the index replaced: a scan in name order.
    fn scan<'a>(db: &'a SpecDb, short: &str) -> Option<&'a ApiSpec> {
        db.specs.values().find(|s| s.short_name() == short)
    }

    fn assert_index_matches_scan(db: &SpecDb) {
        for spec in db.iter() {
            let short = spec.short_name();
            let found = db.get_by_short_name(short).expect("every short name is indexed");
            assert!(std::ptr::eq(found, scan(db, short).expect("listed")), "short name {short:?}");
        }
        assert!(db.get_by_short_name("noSuchMethod").is_none());
    }

    #[test]
    fn short_name_index_answers_as_the_scan_does() {
        let db = crate::spec_db();
        assert_index_matches_scan(db);
        // Short names that two APIs share resolve to the first full name.
        for short in ["concat", "fill", "includes", "indexOf", "lastIndexOf", "slice"] {
            let sharing = db.iter().filter(|s| s.short_name() == short).count();
            assert_eq!(sharing, 2, "{short} is shared by two APIs");
            assert_eq!(
                db.get_by_short_name(short).map(|s| &s.name),
                scan(db, short).map(|s| &s.name)
            );
        }
        assert_eq!(
            db.get_by_short_name("fill").map(|s| s.name.as_str()),
            Some("%TypedArray%.prototype.fill")
        );

        // Filled in reverse name order, with one spec replaced.
        let mut names: Vec<&str> = db.iter().map(|s| s.name.as_str()).collect();
        names.reverse();
        let mut reversed = SpecDb::new();
        for name in &names {
            reversed.insert(db.get(name).expect("listed").clone());
        }
        let mut replacement = db.get("%TypedArray%.prototype.fill").expect("in corpus").clone();
        replacement.step_count += 1;
        let replaced_steps = replacement.step_count;
        reversed.insert(replacement);
        assert_eq!(reversed.len(), db.len());
        assert_index_matches_scan(&reversed);
        let fill = reversed.get_by_short_name("fill").expect("indexed");
        assert_eq!(
            (fill.name.as_str(), fill.step_count),
            ("%TypedArray%.prototype.fill", replaced_steps)
        );
    }

    #[test]
    fn boundary_value_js_text() {
        assert_eq!(BoundaryValue::Undefined.to_js(), "undefined");
        assert_eq!(BoundaryValue::Number(-1.0).to_js(), "-1");
        assert_eq!(BoundaryValue::Infinity(false).to_js(), "-Infinity");
        assert_eq!(BoundaryValue::Str("").to_js(), "\"\"");
    }
}
