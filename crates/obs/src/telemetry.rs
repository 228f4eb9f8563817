//! Per-run telemetry records and their JSONL rendering.
//!
//! One [`RunTelemetry`] is emitted per sweep slot — completed or failed —
//! and rendered as one JSON line with a fixed key order. All numeric
//! fields are integers, so the rendering is byte-deterministic for a
//! fixed seed and independent of the worker-thread count (rows are
//! assembled in slot order by the sweep drivers).

/// Everything a sweep records about one run slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunTelemetry {
    /// Caller-assigned context, e.g. `"fig3/dbf/d4"`. Empty when emitted
    /// below the bench layer.
    pub label: String,
    /// Slot index within the sweep.
    pub slot: u64,
    /// The slot's base seed (before retry reseeding).
    pub seed: u64,
    /// Attempts consumed, the first included (> 1 after retries).
    pub attempts: u32,
    /// Whether the slot produced a usable run.
    pub ok: bool,
    /// Routing protocol under test.
    pub protocol: String,
    /// Engine events processed.
    pub events_processed: u64,
    /// Event-calendar high-water mark (peak pending events).
    pub queue_high_water: u64,
    /// Control messages offered to links.
    pub control_messages: u64,
    /// Control bytes offered to links.
    pub control_bytes: u64,
    /// Reliable-transport retransmissions forced by impairment loss.
    pub control_retransmits: u64,
    /// Data packets injected.
    pub packets_injected: u64,
    /// Data packets delivered.
    pub packets_delivered: u64,
    /// Data packets dropped.
    pub packets_dropped: u64,
    /// 1 if the run was aborted by the event-budget watchdog.
    pub watchdog_trips: u32,
    /// Rendered error of a failed slot; empty when `ok`.
    pub error: String,
}

impl RunTelemetry {
    /// Renders the record as one JSON object line (no trailing newline),
    /// with a fixed key order.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        format!(
            concat!(
                "{{\"label\":\"{label}\",\"slot\":{slot},\"seed\":{seed},",
                "\"attempts\":{attempts},\"ok\":{ok},\"protocol\":\"{protocol}\",",
                "\"events_processed\":{events},\"queue_high_water\":{qhw},",
                "\"control_messages\":{cmsg},\"control_bytes\":{cbytes},",
                "\"control_retransmits\":{cretx},\"packets_injected\":{pin},",
                "\"packets_delivered\":{pdel},\"packets_dropped\":{pdrop},",
                "\"watchdog_trips\":{wd},\"error\":\"{error}\"}}"
            ),
            label = escape_json(&self.label),
            slot = self.slot,
            seed = self.seed,
            attempts = self.attempts,
            ok = self.ok,
            protocol = escape_json(&self.protocol),
            events = self.events_processed,
            qhw = self.queue_high_water,
            cmsg = self.control_messages,
            cbytes = self.control_bytes,
            cretx = self.control_retransmits,
            pin = self.packets_injected,
            pdel = self.packets_delivered,
            pdrop = self.packets_dropped,
            wd = self.watchdog_trips,
            error = escape_json(&self.error),
        )
    }
}

/// Renders records as JSONL: one line each, trailing newline after the
/// last. Empty input renders as the empty string.
#[must_use]
pub fn render_jsonl(rows: &[RunTelemetry]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.to_json_line());
        out.push('\n');
    }
    out
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                for shift in [4u32, 0] {
                    let nibble = (b >> shift) & 0xf;
                    let digit = char::from_digit(nibble, 16).unwrap_or('0');
                    out.push(digit);
                }
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunTelemetry {
        RunTelemetry {
            label: "fig3/dbf/d4".to_string(),
            slot: 7,
            seed: 20030622,
            attempts: 2,
            ok: true,
            protocol: "dbf".to_string(),
            events_processed: 123_456,
            queue_high_water: 890,
            control_messages: 4321,
            control_bytes: 99_000,
            control_retransmits: 3,
            packets_injected: 1000,
            packets_delivered: 950,
            packets_dropped: 50,
            watchdog_trips: 0,
            error: String::new(),
        }
    }

    #[test]
    fn json_line_has_a_fixed_key_order() {
        let line = sample().to_json_line();
        assert!(line.starts_with("{\"label\":\"fig3/dbf/d4\",\"slot\":7,"));
        assert!(line.ends_with("\"watchdog_trips\":0,\"error\":\"\"}"));
        assert!(line.contains(",\"seed\":20030622,\"attempts\":2,\"ok\":true,"));
        assert!(line.contains(",\"events_processed\":123456,\"queue_high_water\":890,"));
    }

    #[test]
    fn jsonl_rendering_is_one_line_per_row() {
        let rows = vec![sample(), sample()];
        let text = render_jsonl(&rows);
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert_eq!(render_jsonl(&[]), "");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        let mut t = sample();
        t.error = "panicked: \"boom\"".to_string();
        assert!(t.to_json_line().contains("\\\"boom\\\""));
    }

    #[test]
    fn identical_rows_render_identical_bytes() {
        assert_eq!(sample().to_json_line(), sample().to_json_line());
    }
}
