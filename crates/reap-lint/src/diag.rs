//! Findings and the machine-readable report.

use crate::json::Value;

/// One finding at one source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Rule class: `determinism`, `panic`, `locks`, `unsafe`, `scope`,
    /// `pragma`.
    pub rule: &'static str,
    /// Specific check within the class (`assert`, `raw-lock`, ...), or
    /// the lint a budgeted `#[expect]` names.
    pub check: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// `Some(justification)` when a pragma or `#[expect]` allows the site.
    pub allowed: Option<String>,
}

impl Diagnostic {
    /// Whether this finding fails the lint (no pragma covers it).
    #[must_use]
    pub fn is_violation(&self) -> bool {
        self.allowed.is_none()
    }

    /// The diagnostic's JSON form (one element of the report arrays).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("rule", Value::str(self.rule)),
            ("check", Value::str(self.check)),
            ("file", Value::str(self.file.clone())),
            ("line", Value::num(self.line as f64)),
            ("message", Value::str(self.message.clone())),
            ("snippet", Value::str(self.snippet.clone())),
            (
                "allowed",
                match &self.allowed {
                    Some(j) => Value::str(j.clone()),
                    None => Value::Null,
                },
            ),
        ])
    }

    /// Rebuilds a diagnostic from its JSON form (schema round-trip
    /// testing; the strings referencing static rule ids are matched back
    /// against the registry).
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field.
    pub fn from_json(v: &Value) -> Result<Diagnostic, String> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("missing {key}"))
        };
        let (rule_s, check_s) = (field("rule")?, field("check")?);
        let rule = crate::rules::RULE_IDS
            .iter()
            .find(|r| **r == rule_s)
            .ok_or_else(|| format!("unknown rule {rule_s}"))?;
        let check = crate::rules::CHECK_IDS
            .iter()
            .copied()
            .find(|c| *c == check_s)
            .or_else(|| crate::rules::budgeted(check_s).map(|(_, lint)| lint))
            .ok_or_else(|| format!("unknown check {check_s}"))?;
        Ok(Diagnostic {
            rule,
            check,
            file: field("file")?.to_string(),
            line: v
                .get("line")
                .and_then(Value::as_f64)
                .ok_or("missing line")? as usize,
            message: field("message")?.to_string(),
            snippet: field("snippet")?.to_string(),
            allowed: match v.get("allowed") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(s.clone()),
                Some(_) => return Err("allowed must be string or null".into()),
            },
        })
    }
}
