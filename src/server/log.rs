//! Leveled structured logging for server lifecycle events.
//!
//! Replaces the server's ad-hoc `eprintln!` calls with one chokepoint
//! that renders either human text (the default — byte-compatible with
//! the messages CI and the integration tests grep for) or one JSON
//! object per line (`--log json`), each event carrying a stable event
//! name plus `key=value` fields (job ids, durations).
//!
//! Format and minimum level are process-global atomics, like `exec`'s
//! `--jobs` worker count: `melody serve --log json` sets them once at
//! startup, everything else just calls [`log`]. Text output is exactly `melody-serve: {message}` (with a
//! `warning: ` prefix at [`Level::Warn`]), so default-format stderr is
//! unchanged from the pre-logging server.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Output representation for server log lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-readable `melody-serve: ...` lines (default).
    Text,
    /// One JSON object per line: `ts_ms`, `level`, `event`, `msg`,
    /// plus the event's fields.
    Json,
}

impl LogFormat {
    /// Parses a `--log` flag value.
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s {
            "text" => Some(LogFormat::Text),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }
}

/// Severity of a server event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Lifecycle progress: submit, start, finish, drain, recover.
    Info,
    /// Degraded-but-continuing conditions: torn journals, skipped files.
    Warn,
    /// Failures the server survives but the operator should see.
    Error,
}

impl Level {
    fn label(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

static FORMAT: AtomicU8 = AtomicU8::new(0);
static MIN_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide log format (wired to `melody serve --log`).
pub fn set_format(f: LogFormat) {
    FORMAT.store(
        match f {
            LogFormat::Text => 0,
            LogFormat::Json => 1,
        },
        Ordering::Relaxed,
    );
}

/// The current log format.
pub fn format() -> LogFormat {
    match FORMAT.load(Ordering::Relaxed) {
        0 => LogFormat::Text,
        _ => LogFormat::Json,
    }
}

/// Sets the minimum level that reaches stderr (default [`Level::Info`]).
pub fn set_min_level(l: Level) {
    MIN_LEVEL.store(
        match l {
            Level::Info => 0,
            Level::Warn => 1,
            Level::Error => 2,
        },
        Ordering::Relaxed,
    );
}

fn min_level() -> Level {
    match MIN_LEVEL.load(Ordering::Relaxed) {
        0 => Level::Info,
        1 => Level::Warn,
        _ => Level::Error,
    }
}

/// Renders one event in the given format (pure; [`log`] prints this).
pub fn render(
    fmt: LogFormat,
    level: Level,
    event: &str,
    msg: &str,
    fields: &[(&str, String)],
    ts_ms: u64,
) -> String {
    match fmt {
        LogFormat::Text => match level {
            Level::Warn => format!("melody-serve: warning: {msg}"),
            _ => format!("melody-serve: {msg}"),
        },
        LogFormat::Json => {
            let mut pairs: Vec<(String, serde::Value)> = vec![
                ("ts_ms".to_string(), serde::Value::U64(ts_ms)),
                (
                    "level".to_string(),
                    serde::Value::Str(level.label().to_string()),
                ),
                ("event".to_string(), serde::Value::Str(event.to_string())),
                ("msg".to_string(), serde::Value::Str(msg.to_string())),
            ];
            for (k, v) in fields {
                pairs.push(((*k).to_string(), serde::Value::Str(v.clone())));
            }
            serde_json::to_string(&serde::Value::Object(pairs)).unwrap_or_default()
        }
    }
}

/// Emits one structured event to stderr (filtered by the minimum level).
pub fn log(level: Level, event: &str, msg: &str, fields: &[(&str, String)]) {
    if level < min_level() {
        return;
    }
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0);
    eprintln!("{}", render(format(), level, event, msg, fields, ts_ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_matches_legacy_messages() {
        // The strings CI greps for must survive the logging refactor.
        let fields = [("jobs", "1".to_string())];
        assert_eq!(
            render(
                LogFormat::Text,
                Level::Info,
                "recover",
                "recovered 1 unfinished job(s) from the journal",
                &fields,
                0,
            ),
            "melody-serve: recovered 1 unfinished job(s) from the journal"
        );
        assert_eq!(
            render(
                LogFormat::Text,
                Level::Warn,
                "journal.torn",
                "dropped 2",
                &[],
                0
            ),
            "melody-serve: warning: dropped 2"
        );
        assert_eq!(
            render(
                LogFormat::Text,
                Level::Info,
                "drain.done",
                "drained cleanly",
                &[],
                0
            ),
            "melody-serve: drained cleanly"
        );
    }

    #[test]
    fn json_format_is_one_parseable_object_with_fields() {
        let fields = [
            ("job", "job-000001".to_string()),
            ("duration_ms", "1234".to_string()),
        ];
        let line = render(
            LogFormat::Json,
            Level::Info,
            "job.finish",
            "job-000001 done",
            &fields,
            42,
        );
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        let pairs = v.as_object().expect("one JSON object");
        let get = |name: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("level"), Some(serde::Value::Str("info".into())));
        assert_eq!(get("event"), Some(serde::Value::Str("job.finish".into())));
        assert_eq!(get("job"), Some(serde::Value::Str("job-000001".into())));
        assert_eq!(get("duration_ms"), Some(serde::Value::Str("1234".into())));
        assert_eq!(get("ts_ms"), Some(serde::Value::U64(42)));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn format_parses_flag_values() {
        assert_eq!(LogFormat::parse("text"), Some(LogFormat::Text));
        assert_eq!(LogFormat::parse("json"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse("xml"), None);
    }
}
