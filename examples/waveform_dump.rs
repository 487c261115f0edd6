//! Waveform dump: run a short cycle-accurate CAM session and write a VCD
//! trace viewable in GTKWave — issue/retire timing, match flags and the
//! retiring addresses, exactly as a hardware bring-up would capture them.
//!
//! ```sh
//! cargo run --example waveform_dump [out.vcd]
//! gtkwave target/cam_trace.vcd   # if you have a viewer
//! ```

use dsp_cam::prelude::*;
use dsp_cam::sim::{Clocked, Vcd};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/cam_trace.vcd".to_string());

    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(64)
        .num_blocks(2)
        .bus_width(512)
        .build()?;
    let mut cam = StreamingCam::new(config)?;

    let mut vcd = Vcd::new("dsp_cam_unit");
    let s_issue_update = vcd.add_signal("issue_update", 1);
    let s_issue_search = vcd.add_signal("issue_search", 1);
    let s_issue_key = vcd.add_signal("issue_key", 32);
    let s_retire_valid = vcd.add_signal("retire_valid", 1);
    let s_retire_match = vcd.add_signal("retire_match", 1);
    let s_retire_addr = vcd.add_signal("retire_addr", 16);

    // A short scripted session: load three values, probe five keys.
    let script: Vec<Op> = vec![
        Op::Update(vec![0xAAAA, 0xBBBB, 0xCCCC]),
        Op::Search(0xBBBB),
        Op::Search(0x1234),
        Op::Search(0xAAAA),
        Op::Search(0xCCCC),
        Op::Search(0xDEAD),
    ];

    let mut script = script.into_iter();
    let mut retired = Vec::new();
    loop {
        let t = cam.cycle();
        // Drive the issue-side signals for this cycle.
        match script.next() {
            Some(op) => {
                let (u, s, key) = match &op {
                    Op::Update(_) | Op::Delete(_) => (1, 0, 0),
                    Op::Search(k) => (0, 1, *k),
                    // This trace drives single-key traffic only.
                    Op::SearchMulti(keys) | Op::SearchStream(keys) => {
                        (0, 1, keys.first().copied().unwrap_or(0))
                    }
                };
                vcd.sample(t, s_issue_update, u);
                vcd.sample(t, s_issue_search, s);
                vcd.sample(t, s_issue_key, key);
                cam.issue(op).expect("one op per cycle");
            }
            None => {
                vcd.sample(t, s_issue_update, 0);
                vcd.sample(t, s_issue_search, 0);
                if !cam.in_flight() {
                    break;
                }
            }
        }
        cam.tick();
        // Capture the retire side.
        retired.clear();
        cam.drain_retired(&mut retired);
        match retired.last().map(|(stamp, done)| (&stamp.retired, done)) {
            Some((cycle, Completion::Search(hit))) => {
                vcd.sample(*cycle, s_retire_valid, 1);
                vcd.sample(*cycle, s_retire_match, u64::from(hit.is_match()));
                vcd.sample(
                    *cycle,
                    s_retire_addr,
                    hit.first_address().unwrap_or(0) as u64,
                );
            }
            Some((cycle, Completion::Update(result))) => {
                vcd.sample(*cycle, s_retire_valid, 1);
                vcd.sample(*cycle, s_retire_match, u64::from(result.is_ok()));
            }
            Some((cycle, Completion::SearchMulti(result))) => {
                vcd.sample(*cycle, s_retire_valid, 1);
                vcd.sample(
                    *cycle,
                    s_retire_match,
                    u64::from(
                        result
                            .as_ref()
                            .is_ok_and(|r| r.iter().any(|h| h.is_match())),
                    ),
                );
            }
            Some((cycle, Completion::SearchStream(results))) => {
                vcd.sample(*cycle, s_retire_valid, 1);
                vcd.sample(
                    *cycle,
                    s_retire_match,
                    u64::from(results.iter().any(|h| h.is_match())),
                );
            }
            Some((cycle, Completion::Delete(hit))) => {
                vcd.sample(*cycle, s_retire_valid, 1);
                vcd.sample(*cycle, s_retire_match, u64::from(*hit));
            }
            None => {
                vcd.sample(t, s_retire_valid, 0);
            }
        }
    }

    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir)?;
    }
    vcd.save(&out)?;
    let text = std::fs::read_to_string(&out)?;
    println!(
        "Wrote {out}: {} lines, {} cycles simulated.",
        text.lines().count(),
        cam.cycle()
    );
    println!(
        "Signals: issue_update/search/key, retire_valid/match/addr — open \
         in GTKWave to see the {}-cycle search pipeline in flight.",
        cam.unit().config().search_latency()
    );
    Ok(())
}
