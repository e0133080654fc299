//! Rendering for the `repro` binary and `BENCH_fork.json`.
//!
//! Each bench family's row type declares its columns once, in its
//! [`Row::cells`] method, as `(json key, typed cell)` pairs. From that one
//! list [`json_family`] renders the family's `BENCH_fork.json` section and
//! [`family_table`] its `repro` text table, whose header is the JSON key
//! and whose cells are the JSON value text. [`repeatable`] is the families'
//! one determinism check.

use std::fmt::Debug;

/// One typed value of a bench row; its kind fixes how it prints.
#[derive(Debug)]
pub enum Cell {
    /// A label, quoted in the JSON.
    Str(String),
    /// A count.
    Int(u64),
    /// A flag.
    Bool(bool),
    /// Simulated ns, to 0.1 ns.
    Ns(f64),
    /// A rate, to three decimals.
    Rate(f64),
    /// A 64-bit digest as 16 hex digits, quoted in the JSON.
    Hex(u64),
}

impl Cell {
    /// The value's text: a table cell, and the JSON value without quotes.
    fn text(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Int(n) => n.to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Ns(v) => format!("{v:.1}"),
            Cell::Rate(v) => format!("{v:.3}"),
            Cell::Hex(d) => format!("{d:016x}"),
        }
    }

    fn json(&self) -> String {
        match self {
            Cell::Str(_) | Cell::Hex(_) => format!("\"{}\"", self.text()),
            _ => self.text(),
        }
    }
}

/// A bench family's row: its columns, declared once.
pub trait Row {
    /// Every column as `(json key, cell)`, in output order.
    fn cells(&self) -> Vec<(&'static str, Cell)>;
}

/// A family's `BENCH_fork.json` section: a named array, one row a line.
pub fn json_family<R: Row>(name: &str, rows: &[R]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r
                .cells()
                .iter()
                .map(|(key, c)| format!("\"{key}\": {}", c.json()))
                .collect();
            format!("    {{{}}}", cells.join(", "))
        })
        .collect();
    format!("  \"{name}\": [\n{}\n  ]", rows.join(",\n"))
}

/// A family's `repro` table: the JSON keys over the JSON value text.
pub fn family_table<R: Row>(rows: &[R]) -> String {
    let cells: Vec<_> = rows.iter().map(Row::cells).collect();
    let headers: Vec<&str> = cells
        .first()
        .map_or(Vec::new(), |c| c.iter().map(|(key, _)| *key).collect());
    let body: Vec<Vec<String>> = cells
        .iter()
        .map(|c| c.iter().map(|(_, cell)| cell.text()).collect())
        .collect();
    render_table(&headers, &body)
}

/// Runs `run` twice and returns the first result, asserting that the two
/// results print identically under `{:?}`. Rust prints an `f64` so that
/// it parses back to the same bits, so this compares every field of a
/// row, floats bitwise (NaN payloads aside).
///
/// # Panics
///
/// Panics naming `what` and the first line that differs between the two
/// results' `{:#?}` renderings.
pub fn repeatable<T: Debug>(what: &str, mut run: impl FnMut() -> T) -> T {
    let (first, again) = (run(), run());
    if format!("{first:?}") != format!("{again:?}") {
        let (a, b) = (format!("{first:#?}"), format!("{again:#?}"));
        let at = a.lines().zip(b.lines()).take_while(|(x, y)| x == y).count();
        let line = |s: &str| s.lines().nth(at).unwrap_or("<end>").trim().to_string();
        panic!(
            "{what} is nondeterministic: `{}` on the first run, `{}` on the repeat",
            line(&a),
            line(&b)
        );
    }
    first
}

/// Renders rows of cells as an aligned table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        padded.join("  ").trim_end().to_string() + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1));
    let mut out = line(headers.to_vec()) + &rule + "\n";
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
    }
    out
}

/// Formats a f64 with sensible precision for the magnitude.
pub fn num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Human-readable size label for a DB size in bytes.
pub fn size_label(bytes: u64) -> String {
    if bytes >= 1_000_000 {
        format!("{}MB", bytes / 1_000_000)
    } else {
        format!("{}KB", bytes / 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PressureStormRow, ScalingRow, StormRow};
    use ufork::WalkMode;
    use ufork_sim::OpCounters;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     long-header"));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(1234.6), "1235");
        assert_eq!(num(56.78), "56.8");
        assert_eq!(num(1.234), "1.23");
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(100_000), "100KB");
        assert_eq!(size_label(1_000_000), "1MB");
        assert_eq!(size_label(100_000_000), "100MB");
    }

    #[test]
    fn one_row_renders_its_json_line_and_its_table_line() {
        let row = PressureStormRow {
            occupancy: "high",
            daemon: true,
            children: 600,
            sim_p50_ns: 61_347.84,
            sim_p99_ns: 65_187.8,
            sim_final_ns: 1.5e9,
            counters: OpCounters {
                reclaim_background: 3,
                frames_prezeroed: 40,
                magazine_hits: 12,
                ..OpCounters::default()
            },
            digest: 0x5232_0aec_2612_fed5,
        };
        assert_eq!(
            json_family("fork_pressure", std::slice::from_ref(&row)),
            "  \"fork_pressure\": [\n    {\"occupancy\": \"high\", \"daemon\": true, \
             \"children\": 600, \"sim_p50_ns\": 61347.8, \"sim_p99_ns\": 65187.8, \
             \"sim_final_ns\": 1500000000.0, \"reclaim_background\": 3, \"frames_prezeroed\": 40, \
             \"magazine_hits\": 12, \"reclaim_inline\": 0, \"oom_kills\": 0, \
             \"digest\": \"52320aec2612fed5\"}\n  ]"
        );
        let table = family_table(&[row]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(
            lines[0],
            "occupancy  daemon  children  sim_p50_ns  sim_p99_ns  sim_final_ns  reclaim_background  frames_prezeroed  magazine_hits  reclaim_inline  oom_kills  digest"
        );
        assert_eq!(lines[1], "-".repeat(163));
        assert_eq!(
            lines[2],
            "high       true    600       61347.8     65187.8     1500000000.0  3                   40                12             0               0          52320aec2612fed5"
        );
        assert_eq!(lines.len(), 3);
        assert_eq!(Cell::Rate(2.5).text(), "2.500");
    }

    fn scaling_row(chunks: u64) -> ScalingRow {
        ScalingRow {
            heap: "cap-dense",
            walk: WalkMode::Parallel(8),
            workers: 8,
            sim_fork_ns: 1000.0,
            sim_copy_done_ns: 1000.0,
            counters: OpCounters {
                fork_chunks: chunks,
                ..OpCounters::default()
            },
        }
    }

    #[test]
    fn repeatable_returns_the_first_run() {
        let row = repeatable("scaling", || scaling_row(14));
        assert_eq!(row.counters.fork_chunks, 14);
    }

    #[test]
    #[should_panic(expected = "fork_chunks: 15")]
    fn repeatable_rejects_a_changed_counter() {
        let mut chunks = 13;
        repeatable("scaling", || {
            chunks += 1;
            scaling_row(chunks)
        });
    }

    #[test]
    #[should_panic(expected = "forks_per_sim_sec")]
    fn repeatable_rejects_a_one_bit_float_difference() {
        let row = crate::run_storm(&crate::storm_modes()[4], 20, 1, 2);
        let mut runs = 0;
        repeatable("storm", || {
            runs += 1;
            let mut r: StormRow = row;
            if runs == 2 {
                let rate = r.report.forks_per_sim_sec;
                r.report.forks_per_sim_sec = f64::from_bits(rate.to_bits() ^ 1);
            }
            r
        });
    }
}
