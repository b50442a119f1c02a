//! Golden-file tests of the telemetry exporters.
//!
//! A fixed, hand-built recorder (every variant of `Event`, `CoherenceEvent`
//! and `CampaignAction`, three samples, four histograms) is exported through
//! each writer and compared byte-for-byte against the files committed under
//! `tests/golden/`. Each export is then
//! re-read through the dependency-free JSON parser (`raccd_obs::json`) to
//! prove the round trip: what the exporters emit, the parser recovers —
//! values, nulls and escapes included.
//!
//! To regenerate after an intentional format change:
//! `RACCD_UPDATE_GOLDEN=1 cargo test -p raccd-obs --test export_golden`
//! and commit the diff.

use raccd_mem::BlockAddr;
use raccd_obs::json::{self, Value};
use raccd_obs::{
    chrome_trace_json, write_campaign_depth_csv, write_events_jsonl, write_histograms,
    write_series_csv, CampaignAction, Event, Gauges, Recorder,
};
use raccd_sim::{CoherenceEvent, FaultSite, Stats};
use std::path::Path;

/// Build the fixed telemetry fixture: one tiny "run" touching every event
/// variant and every exporter input.
fn fixture() -> Recorder {
    let mut rec = Recorder::default();
    let t0 = rec.intern("init \"grid\""); // exercises string escaping
    let t1 = rec.intern("sweep");

    rec.record(Event::TaskCreated {
        cycle: 0,
        task: 0,
        name: t0,
        deps: 0,
    });
    rec.record(Event::TaskCreated {
        cycle: 0,
        task: 1,
        name: t1,
        deps: 2,
    });
    rec.record(Event::TaskWoken {
        cycle: 0,
        task: 0,
        waker_core: None,
    });
    rec.record(Event::TaskScheduled {
        cycle: 100,
        task: 0,
        name: t0,
        ctx: 0,
        core: 0,
        wait_cycles: 100,
    });
    rec.record(Event::TaskMigrated {
        cycle: 100,
        task: 0,
        from_core: 1,
        to_core: 0,
    });
    rec.record(Event::NcrtRegister {
        cycle: 110,
        ctx: 0,
        core: 0,
        task: 0,
        dur: 14,
        entries_added: 1,
        tlb_lookups: 4,
        overflowed: false,
    });
    rec.record(Event::Coherence {
        cycle: 150,
        ev: CoherenceEvent::CoherentFill {
            core: 0,
            block: BlockAddr(0x40),
            write: true,
            from_owner: false,
        },
    });
    rec.record(Event::Coherence {
        cycle: 160,
        ev: CoherenceEvent::AdrResize {
            bank: 2,
            grow: false,
            new_entries: 1024,
            blocked_cycles: 96,
        },
    });
    rec.record(Event::NcrtInvalidate {
        cycle: 300,
        ctx: 0,
        core: 0,
        task: 0,
        dur: 40,
        lines_flushed: 3,
    });
    rec.record(Event::TaskCompleted {
        cycle: 340,
        task: 0,
        ctx: 0,
        refs: 64,
    });
    rec.record(Event::TaskWoken {
        cycle: 340,
        task: 1,
        waker_core: Some(0),
    });
    rec.record(Event::PtTransition {
        cycle: 400,
        prev_owner: 0,
        page: 0x40,
        flushed_lines: 5,
    });
    // The remaining driver-plane variants (fault recovery).
    rec.record(Event::TaskRetry {
        cycle: 410,
        task: 1,
        ctx: 2,
        attempt: 1,
    });
    rec.record(Event::TaskScheduled {
        cycle: 415,
        task: 1,
        name: t1,
        ctx: 2,
        core: 1,
        wait_cycles: 75,
    });
    rec.record(Event::ModeDowngrade {
        cycle: 420,
        overflows: 12,
        retries: 30,
    });
    rec.record(Event::WatchdogFired {
        cycle: 425,
        last_progress: 340,
        threshold: 64,
    });
    // Every remaining machine-plane variant, in tag order.
    let block = BlockAddr(0x1_0000_0040);
    for (i, ev) in [
        CoherenceEvent::NcFill {
            core: 1,
            block,
            write: false,
        },
        CoherenceEvent::Upgrade { core: 1, block },
        CoherenceEvent::DirEviction { block },
        CoherenceEvent::NcToCoherent { block },
        CoherenceEvent::CoherentToNc { block },
        CoherenceEvent::FlushNc { core: 3, lines: 17 },
        CoherenceEvent::AdrResize {
            bank: 2,
            grow: true,
            new_entries: 2048,
            blocked_cycles: 192,
        },
        CoherenceEvent::FaultInjected {
            site: FaultSite::NocDrop,
            from: 0,
            to: 3,
        },
        CoherenceEvent::Nack { from: 3, to: 0 },
        CoherenceEvent::RetryRecovered {
            attempts: 2,
            delay: 96,
        },
        CoherenceEvent::RetryExhausted {
            from: 0,
            to: 3,
            attempts: 9,
        },
        CoherenceEvent::DirEntryLost { block },
    ]
    .into_iter()
    .enumerate()
    {
        rec.record(Event::Coherence {
            cycle: 430 + 5 * i as u64,
            ev,
        });
    }
    // Campaign-plane lifecycle (host-ms clock, not simulated cycles): every
    // action, with a seed and a fingerprint that need all 64 bits.
    for (i, action) in [
        CampaignAction::Enqueue,
        CampaignAction::Dedup,
        CampaignAction::Shed,
        CampaignAction::Lease,
        CampaignAction::Retry,
        CampaignAction::Fail,
        CampaignAction::Complete,
    ]
    .into_iter()
    .enumerate()
    {
        rec.record(Event::Campaign {
            cycle: 500 + 12 * i as u64,
            action,
            fingerprint: 0xdead_beef_cafe_f00d >> (4 * i),
            seed: if i == 0 { 7 } else { u64::MAX - i as u64 },
            queue_depth: [1, 1, 1, 1, 1, 1, 0][i],
        });
    }

    rec.hist_mem_latency.record(2);
    rec.hist_mem_latency.record(120);
    rec.hist_mem_latency.record(121);
    rec.hist_wake_to_dispatch.record(100);
    rec.hist_bank_wait.record(0);

    let stats = Stats {
        l1_hits: 50,
        l1_misses: 14,
        nc_fills: 9,
        coherent_fills: 5,
        ..Stats::default()
    };
    let gauges = Gauges {
        dir_occupied: 12,
        dir_capacity: 2048,
        ready_tasks: 1,
        busy_contexts: 1,
        sched_popped: 1,
        sched_steals: 0,
    };
    rec.maybe_sample(4096, &stats, gauges);
    // ADR halved the powered capacity between the two interval samples.
    let later = Stats {
        dir_accesses: 40,
        nc_fills: 10,
        coherent_fills: 25,
        invalidations_sent: 6,
        l1_writebacks: 4,
        mem_reads: 11,
        mem_writes: 3,
        bank_wait_cycles: 77,
        refs_processed: 1000,
        tasks_executed: 2,
        ..stats
    };
    let shrunk = Gauges {
        dir_occupied: 700,
        dir_capacity: 1024,
        ready_tasks: 0,
        busy_contexts: 3,
        sched_popped: 2,
        sched_steals: 1,
    };
    rec.maybe_sample(8200, &later, shrunk);
    rec.finish(9000, &later, shrunk);
    rec
}

/// Compare `got` against the committed golden file, or rewrite it when
/// `RACCD_UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("RACCD_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); run with RACCD_UPDATE_GOLDEN=1")
    });
    assert_eq!(
        got, want,
        "{name} drifted from its golden file; if intentional, regenerate with RACCD_UPDATE_GOLDEN=1"
    );
}

#[test]
fn events_jsonl_matches_golden_and_parses() {
    let rec = fixture();
    let mut buf = Vec::new();
    write_events_jsonl(rec.names(), rec.events(), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_golden("events.jsonl", &text);

    // Round trip: every line parses, and the typed content survives.
    let lines: Vec<Value> = text
        .lines()
        .map(|l| json::parse(l).expect("JSONL line parses"))
        .collect();
    assert_eq!(lines.len(), rec.events().len());
    // The escaped task name comes back exactly.
    assert_eq!(
        lines[0].get("name").and_then(Value::as_str),
        Some("init \"grid\"")
    );
    // Initially-ready wake has a JSON null waker.
    assert_eq!(lines[2].get("waker_core"), Some(&Value::Null));
    // The later wake carries its waking core.
    assert_eq!(
        lines[10].get("waker_core").and_then(Value::as_f64),
        Some(0.0)
    );
    // The migration event carries both cores.
    assert_eq!(
        lines[4].get("kind").and_then(Value::as_str),
        Some("task_migrated")
    );
    assert_eq!(lines[4].get("from_core").and_then(Value::as_f64), Some(1.0));
    assert_eq!(lines[4].get("to_core").and_then(Value::as_f64), Some(0.0));
    // Numeric payloads survive.
    assert_eq!(
        lines[5].get("tlb_lookups").and_then(Value::as_f64),
        Some(4.0)
    );
    assert_eq!(
        lines[6].get("kind").and_then(Value::as_str),
        Some("coherent_fill")
    );
}

#[test]
fn chrome_trace_matches_golden_and_parses() {
    let rec = fixture();
    let text = chrome_trace_json(&rec);
    assert_golden("trace.json", &text);

    let doc = json::parse(&text).expect("trace parses as one JSON document");
    let events = doc.get("traceEvents").expect("traceEvents key");
    assert!(!events.items().is_empty(), "trace has events");
    // Every trace event carries the Perfetto-required fields (metadata
    // records, ph == "M", are timeless by spec).
    for ev in events.items() {
        let ph = ev.get("ph").and_then(Value::as_str).expect("phase field");
        assert!(ev.get("pid").is_some(), "missing pid: {ev:?}");
        if ph != "M" {
            assert!(ev.get("ts").is_some(), "missing ts: {ev:?}");
        }
    }
    // The B/E task span for task 0 is present and ordered.
    let phases: Vec<&str> = events
        .items()
        .iter()
        .filter_map(|e| e.get("ph").and_then(Value::as_str))
        .collect();
    let b = phases.iter().position(|p| *p == "B");
    let e = phases.iter().position(|p| *p == "E");
    assert!(b.is_some() && e.is_some() && b < e, "task span B before E");
    // The migration instant landed on the machine track.
    assert!(text.contains("task_migrated"), "migration instant exported");
}

#[test]
fn series_csv_matches_golden() {
    let rec = fixture();
    let mut buf = Vec::new();
    write_series_csv(rec.samples(), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_golden("series.csv", &text);
    let mut lines = text.lines();
    let header = lines.next().expect("header row");
    assert!(header.starts_with("cycle,"));
    assert_eq!(lines.count(), 3, "two interval samples + the finish sample");
}

#[test]
fn campaign_depth_csv_matches_golden() {
    let rec = fixture();
    let mut buf = Vec::new();
    write_campaign_depth_csv(rec.events(), &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_golden("campaign_depth.csv", &text);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("ms,action,fp,seed,queue_depth"));
    assert_eq!(lines.next(), Some("500,enqueue,deadbeefcafef00d,7,1"));
    assert_eq!(
        lines.next(),
        Some("512,dedup,0deadbeefcafef00,18446744073709551614,1")
    );
    assert_eq!(lines.count(), 5, "non-campaign events are filtered out");
}

#[test]
fn histograms_match_golden() {
    let rec = fixture();
    let mut buf = Vec::new();
    write_histograms(&rec, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert_golden("histograms.txt", &text);
    assert!(text.contains("mem_latency"));
}
