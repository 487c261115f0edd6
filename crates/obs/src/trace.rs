//! Cycle-stamped event tracing with bounded memory.
//!
//! Every architectural event carries the issue-cycle counter of the unit
//! that produced it, so a trace lines up with the paper's cycle
//! accounting (update = 1 beat, search = 1 issue slot per group batch).
//! Events land in a fixed-capacity ring: when full, the oldest record is
//! evicted and counted in `dropped` — tracing never grows unbounded and
//! never stalls the datapath.
//!
//! The trace exports two ways: newline-free JSON (one object per
//! record) and a [`Vcd`] waveform via `sim::vcd`, where the *time axis
//! is the event ordinal* (cycle stamps repeat within a batch, but VCD
//! time must not go backwards) and the real cycle stamp rides on a
//! dedicated 64-bit `cycle` signal.

use std::collections::VecDeque;

use dsp_cam_sim::vcd::Vcd;

use crate::json::Json;

/// Which architectural operation an [`Event::Issue`] describes.
///
/// Defined here (not imported from `core`) so the observability crate
/// sits below every instrumented crate in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Single-key broadcast search.
    Search,
    /// One-key-per-group parallel search.
    SearchMulti,
    /// Batched streaming search (deduped, `M` keys per issue slot).
    SearchStream,
    /// Word-burst update.
    Update,
    /// First-match delete (search-then-invalidate).
    Delete,
    /// Full-unit reset.
    Reset,
    /// Group repartition.
    ConfigureGroups,
    /// Routing-table write.
    RoutingWrite,
}

impl OpKind {
    /// Stable lowercase name used in JSON exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Search => "search",
            OpKind::SearchMulti => "search_multi",
            OpKind::SearchStream => "search_stream",
            OpKind::Update => "update",
            OpKind::Delete => "delete",
            OpKind::Reset => "reset",
            OpKind::ConfigureGroups => "configure_groups",
            OpKind::RoutingWrite => "routing_write",
        }
    }
}

/// Execution tier, mirrored from `core::FidelityMode` without the
/// dependency (the obs crate sits below `core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Cycle-accurate DSP48E2 simulation.
    BitAccurate,
    /// Transposed bit-sliced shadow.
    Turbo,
}

impl Tier {
    /// Stable lowercase name used in JSON exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::BitAccurate => "bit_accurate",
            Tier::Turbo => "turbo",
        }
    }

    /// 2-bit encoding for the VCD `tier` signal. Codes are stable, so
    /// recorded waveforms keep decoding the same (code 1 is unused).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            Tier::BitAccurate => 0,
            Tier::Turbo => 2,
        }
    }
}

/// One architectural event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An operation entered a group's issue slot.
    Issue {
        /// The operation kind.
        kind: OpKind,
        /// Logical group the work was routed to.
        group: u32,
    },
    /// A search key hit at least one valid cell.
    Match {
        /// The (masked) search key.
        key: u64,
        /// Logical group searched.
        group: u32,
        /// Group-local address of the first (priority) match.
        address: u32,
    },
    /// A search key missed every valid cell.
    Miss {
        /// The (masked) search key.
        key: u64,
        /// Logical group searched.
        group: u32,
    },
    /// A word burst was written.
    Update {
        /// Words in the burst.
        words: u32,
        /// Bus beats the burst took.
        beats: u32,
    },
    /// The execution tier changed.
    TierSwitch {
        /// The new tier.
        tier: Tier,
    },
    /// The degradation governor fell back one tier after a sampled
    /// cross-check caught a shadow answer diverging from the DSP oracle
    /// (restores are recorded as plain [`Event::TierSwitch`]es).
    TierDegraded {
        /// The tier that was serving searches when divergence was caught.
        from: Tier,
        /// The tier the unit fell back to.
        to: Tier,
    },
    /// A `search_stream` batch was admitted.
    StreamBatch {
        /// Keys presented (before dedup).
        presented: u32,
        /// Unique keys actually issued.
        unique: u32,
        /// Groups the batch was packed across.
        groups: u32,
    },
}

impl Event {
    /// Stable lowercase name of the event variant.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::Issue { .. } => "issue",
            Event::Match { .. } => "match",
            Event::Miss { .. } => "miss",
            Event::Update { .. } => "update",
            Event::TierSwitch { .. } => "tier_switch",
            Event::StreamBatch { .. } => "stream_batch",
            Event::TierDegraded { .. } => "tier_degraded",
        }
    }

    /// 3-bit encoding for the VCD `event` signal (0 = idle).
    #[must_use]
    pub fn code(&self) -> u64 {
        match self {
            Event::Issue { .. } => 1,
            Event::Match { .. } => 2,
            Event::Miss { .. } => 3,
            Event::Update { .. } => 4,
            Event::TierSwitch { .. } => 5,
            Event::StreamBatch { .. } => 6,
            Event::TierDegraded { .. } => 7,
        }
    }

    fn payload(&self) -> Vec<(String, Json)> {
        let int = |v: u64| Json::Int(i128::from(v));
        match *self {
            Event::Issue { kind, group } => vec![
                ("op".to_owned(), Json::Str(kind.name().to_owned())),
                ("group".to_owned(), int(u64::from(group))),
            ],
            Event::Match {
                key,
                group,
                address,
            } => vec![
                ("key".to_owned(), int(key)),
                ("group".to_owned(), int(u64::from(group))),
                ("address".to_owned(), int(u64::from(address))),
            ],
            Event::Miss { key, group } => vec![
                ("key".to_owned(), int(key)),
                ("group".to_owned(), int(u64::from(group))),
            ],
            Event::Update { words, beats } => vec![
                ("words".to_owned(), int(u64::from(words))),
                ("beats".to_owned(), int(u64::from(beats))),
            ],
            Event::TierSwitch { tier } => {
                vec![("tier".to_owned(), Json::Str(tier.name().to_owned()))]
            }
            Event::TierDegraded { from, to } => vec![
                ("from".to_owned(), Json::Str(from.name().to_owned())),
                ("to".to_owned(), Json::Str(to.name().to_owned())),
            ],
            Event::StreamBatch {
                presented,
                unique,
                groups,
            } => vec![
                ("presented".to_owned(), int(u64::from(presented))),
                ("unique".to_owned(), int(u64::from(unique))),
                ("groups".to_owned(), int(u64::from(groups))),
            ],
        }
    }
}

/// One admitted trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Issue-cycle counter of the producing unit when the event fired.
    pub cycle: u64,
    /// Monotonic admission sequence number (survives ring eviction).
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl TraceRecord {
    /// Render the record as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut entries = vec![
            ("seq".to_owned(), Json::Int(i128::from(self.seq))),
            ("cycle".to_owned(), Json::Int(i128::from(self.cycle))),
            (
                "event".to_owned(),
                Json::Str(self.event.kind_name().to_owned()),
            ),
        ];
        entries.extend(self.event.payload());
        Json::Object(entries)
    }
}

/// Fixed-capacity ring of [`TraceRecord`]s with drop-oldest eviction.
#[derive(Debug, Clone)]
pub struct EventTracer {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

impl EventTracer {
    /// A tracer retaining at most `capacity` records (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventTracer {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Admit one event, evicting the oldest record if the ring is full.
    pub fn record(&mut self, cycle: u64, event: Event) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceRecord {
            cycle,
            seq: self.recorded,
            event,
        });
        self.recorded += 1;
    }

    /// Records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Retention capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events admitted since creation.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Total records evicted to bound memory.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Render the retained trace as a JSON array of record objects.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::Array(self.records().map(TraceRecord::to_json).collect()).render()
    }

    /// Build a VCD waveform from the retained trace.
    ///
    /// VCD time must be non-decreasing but batch events share a cycle
    /// stamp, so the time axis is the *record ordinal*; the real stamp
    /// is exported on the 64-bit `cycle` signal. Signals: `event`
    /// (3-bit variant code), `cycle`, `key` (48-bit), `group`, `tier`
    /// (2-bit).
    #[must_use]
    pub fn to_vcd(&self, module: &str) -> Vcd {
        let mut vcd = Vcd::new(module);
        let sig_event = vcd.add_signal("event", 3);
        let sig_cycle = vcd.add_signal("cycle", 64);
        let sig_key = vcd.add_signal("key", 48);
        let sig_group = vcd.add_signal("group", 16);
        let sig_tier = vcd.add_signal("tier", 2);
        for (t, record) in self.records().enumerate() {
            let t = t as u64;
            vcd.sample(t, sig_event, record.event.code());
            vcd.sample(t, sig_cycle, record.cycle);
            match record.event {
                Event::Issue { group, .. } => {
                    vcd.sample(t, sig_group, u64::from(group));
                }
                Event::Match { key, group, .. } | Event::Miss { key, group } => {
                    vcd.sample(t, sig_key, key);
                    vcd.sample(t, sig_group, u64::from(group));
                }
                Event::TierSwitch { tier } | Event::TierDegraded { to: tier, .. } => {
                    vcd.sample(t, sig_tier, tier.code());
                }
                Event::Update { .. } | Event::StreamBatch { .. } => {}
            }
        }
        vcd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut tracer = EventTracer::new(3);
        for cycle in 0..5u64 {
            tracer.record(cycle, Event::TierSwitch { tier: Tier::Turbo });
        }
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.recorded(), 5);
        assert_eq!(tracer.dropped(), 2);
        let cycles: Vec<u64> = tracer.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        let seqs: Vec<u64> = tracer.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "seq numbers survive eviction");
    }

    #[test]
    fn trace_json_is_parseable_and_complete() {
        let mut tracer = EventTracer::new(16);
        tracer.record(
            1,
            Event::Issue {
                kind: OpKind::SearchStream,
                group: 2,
            },
        );
        tracer.record(
            1,
            Event::Match {
                key: 0xBEEF,
                group: 2,
                address: 7,
            },
        );
        tracer.record(2, Event::Miss { key: 3, group: 0 });
        tracer.record(3, Event::Update { words: 4, beats: 1 });
        tracer.record(
            4,
            Event::StreamBatch {
                presented: 10,
                unique: 8,
                groups: 4,
            },
        );
        let parsed = Json::parse(&tracer.to_json()).unwrap();
        let items = parsed.items().unwrap();
        assert_eq!(items.len(), 5);
        assert_eq!(items[0].get("event").and_then(Json::as_str), Some("issue"));
        assert_eq!(
            items[0].get("op").and_then(Json::as_str),
            Some("search_stream")
        );
        assert_eq!(items[1].get("key").and_then(Json::as_u64), Some(0xBEEF));
        assert_eq!(items[4].get("unique").and_then(Json::as_u64), Some(8));
    }

    #[test]
    fn vcd_bridge_renders_all_event_kinds() {
        let mut tracer = EventTracer::new(16);
        tracer.record(
            0,
            Event::Issue {
                kind: OpKind::Search,
                group: 1,
            },
        );
        tracer.record(
            0,
            Event::Match {
                key: 42,
                group: 1,
                address: 3,
            },
        );
        tracer.record(5, Event::TierSwitch { tier: Tier::Turbo });
        let rendered = tracer.to_vcd("trace").render();
        assert!(rendered.contains("$var"), "header present");
        assert!(rendered.contains("event"), "event signal declared");
        assert!(rendered.contains("cycle"), "cycle signal declared");
    }

    #[test]
    fn zero_capacity_clamped() {
        let mut tracer = EventTracer::new(0);
        tracer.record(0, Event::TierSwitch { tier: Tier::Turbo });
        assert_eq!(tracer.len(), 1);
    }
}
