//! Peak memory of reopening a journal whose live state is larger than a
//! wire frame.
//!
//! ```text
//! cargo run --release -p serve --example journal_reopen -- write DIR
//! cargo run --release -p serve --example journal_reopen -- open DIR
//! ```
//!
//! `write` journals four unacknowledged `Done` replies that together pass
//! `MAX_FRAME` (67 MB of reply bytes), and the fourth rotates the journal,
//! so `DIR` holds one segment with the whole state. `open` only reopens
//! it, then prints what it recovered and the process's `VmHWM`.

use serve::{Journal, JournalConfig, OutcomeBody};

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [mode, dir] = &args[..] else {
        panic!("usage: journal_reopen write|open DIR");
    };
    let mut cfg = JournalConfig::new(dir);
    let n = transport::MAX_FRAME / 8 / 4 + 1;
    // Three replies stay under this, the fourth passes it and rotates.
    cfg.segment_bytes = (3 * n * 8 + n * 4) as u64;
    let (journal, rec) = Journal::open(cfg)?;
    match mode.as_str() {
        "write" => {
            journal
                .register("a", 1, 0, 0)
                .map_err(std::io::Error::other)?;
            for seq in 1..=4 {
                journal.admit("a", seq, 2, 1, 1e-3)?;
                let body = OutcomeBody::Done {
                    grids: 7,
                    l2_error: seq as f64,
                    combined: (0..n).map(|i| i as f64).collect(),
                };
                journal.record_outcome("a", seq, &body)?;
            }
        }
        "open" => {
            let status = std::fs::read_to_string("/proc/self/status")?;
            let hwm = status.lines().find(|l| l.starts_with("VmHWM"));
            println!(
                "recovered {} unacked replies; {}",
                rec.unacked_outcomes,
                hwm.unwrap_or("VmHWM unavailable")
            );
        }
        other => panic!("unknown mode {other:?}"),
    }
    Ok(())
}
