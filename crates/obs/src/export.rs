//! Exporters: JSONL event dump, CSV time-series, latency-histogram text,
//! and Chrome Trace Format (Perfetto-loadable) timelines.
//!
//! All three formats are derived from the same [`Event`] stream and
//! [`Sample`] series, so they stay mutually consistent by construction.
//! The Chrome trace uses the convention 1 simulated cycle = 1 µs of trace
//! time: `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! then display cycle counts directly.

use std::io::{self, Write};

use raccd_sim::Field;

use crate::event::Event;
use crate::json::{self, Obj};
use crate::recorder::Recorder;
use crate::sampler::Sample;
pub use crate::sampler::CSV_COLUMNS;

/// Render one event as a single-line JSON object: `kind`, `cycle`, then
/// the event's fields in declaration order. Task names are resolved
/// through `names` (the recorder's intern table).
pub fn event_json(names: &[String], ev: &Event) -> String {
    let mut o = Obj::new().str("kind", ev.kind()).u64("cycle", ev.cycle());
    ev.fields(names, &mut |key, v| o.push(key, v));
    o.render()
}

/// Dump a buffered event slice as JSONL, one object per line.
pub fn write_events_jsonl(names: &[String], events: &[Event], w: &mut dyn Write) -> io::Result<()> {
    for ev in events {
        writeln!(w, "{}", event_json(names, ev))?;
    }
    Ok(())
}

/// Write the interval time-series as CSV with a header row.
pub fn write_series_csv(samples: &[Sample], w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "{}", CSV_COLUMNS.join(","))?;
    for s in samples {
        let mut cells = Vec::with_capacity(CSV_COLUMNS.len());
        s.fields(&mut |_, v| {
            cells.push(match v {
                Field::F64(x) => format!("{x:.6}"),
                v => json::field(v),
            })
        });
        writeln!(w, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Write the campaign queue-depth time-series as CSV (one row per
/// campaign lifecycle event; `ms` is host milliseconds since campaign
/// start). Non-campaign events in `events` are ignored, so the full
/// recorder stream can be passed straight through.
pub fn write_campaign_depth_csv(events: &[Event], w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "ms,action,fp,seed,queue_depth")?;
    for ev in events {
        if let Event::Campaign {
            cycle,
            action,
            fingerprint,
            seed,
            queue_depth,
        } = *ev
        {
            writeln!(
                w,
                "{cycle},{},{fingerprint:016x},{seed},{queue_depth}",
                action.label()
            )?;
        }
    }
    Ok(())
}

/// Write the recorder's three latency histograms as a text report.
pub fn write_histograms(rec: &Recorder, w: &mut dyn Write) -> io::Result<()> {
    w.write_all(rec.hist_mem_latency.render("mem_latency_cycles").as_bytes())?;
    w.write_all(
        rec.hist_wake_to_dispatch
            .render("wake_to_dispatch_cycles")
            .as_bytes(),
    )?;
    w.write_all(rec.hist_bank_wait.render("bank_wait_cycles").as_bytes())?;
    w.write_all(
        rec.hist_retry_latency
            .render("retry_latency_cycles")
            .as_bytes(),
    )
}

/// Process id used for per-context task tracks in the Chrome trace.
const PID_TASKS: u64 = 0;
/// Process id used for machine-level instants and counters.
const PID_MACHINE: u64 = 1;

fn trace_base(ph: &str, name: &str, ts: u64, pid: u64, tid: u64) -> Obj {
    Obj::new()
        .str("ph", ph)
        .str("name", name)
        .u64("ts", ts)
        .u64("pid", pid)
        .u64("tid", tid)
}

/// How one event kind appears in the Chrome trace: `(kind, ph, name, cat,
/// on_ctx, args)`.
///
/// - `ph`: `B`/`E` task span, `X` complete slice (the event's `dur` field
///   is the slice length), `i` instant.
/// - `name`: the display name; empty shows the event's own `name` field,
///   if it has one.
/// - `on_ctx`: on the per-context track of the tasks process named by the
///   event's `ctx` field (instants are thread-scoped), or on the machine
///   track (instants are global).
/// - `args`: the fields that go into `args`, in declaration order.
///
/// Kinds without a row (task creation and wake-up, per-reference fills
/// and upgrades, per-message fault outcomes) would dwarf the trace; they
/// live in the JSONL dump and the counter tracks.
type TraceRow = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    bool,
    &'static [&'static str],
);

#[rustfmt::skip]
const TRACE_ROWS: [TraceRow; 16] = [
    ("task_scheduled", "B", "", "task", true, &["task", "wait_cycles"]),
    ("task_completed", "E", "", "", true, &["task", "refs"]),
    ("task_retry", "i", "task_retry", "task", true, &["task", "attempt"]),
    ("ncrt_register", "X", "raccd_register", "raccd", true, &["entries_added", "tlb_lookups", "overflowed"]),
    ("ncrt_invalidate", "X", "raccd_invalidate", "raccd", true, &["lines_flushed"]),
    ("task_migrated", "i", "task_migrated", "machine", false, &["task", "from_core", "to_core"]),
    ("pt_transition", "i", "pt_private_to_shared", "machine", false, &["prev_owner", "page", "flushed_lines"]),
    ("watchdog_fired", "i", "watchdog_fired", "machine", false, &["last_progress", "threshold"]),
    ("mode_downgrade", "i", "mode_downgrade", "machine", false, &["overflows", "retries"]),
    ("dir_eviction", "i", "dir_eviction", "machine", false, &["block"]),
    ("nc_to_coherent", "i", "nc_to_coherent", "machine", false, &["block"]),
    ("coherent_to_nc", "i", "coherent_to_nc", "machine", false, &["block"]),
    ("flush_nc", "i", "flush_nc", "machine", false, &["core", "lines"]),
    // Named `adr_double` / `adr_halve` by its `grow` field.
    ("adr_resize", "i", "", "machine", false, &["bank", "new_entries", "blocked_cycles"]),
    ("retry_exhausted", "i", "retry_exhausted", "machine", false, &["from", "to", "attempts"]),
    ("dir_entry_lost", "i", "dir_entry_lost", "machine", false, &["block"]),
];

/// The sample columns drawn as `C` counter tracks.
const COUNTER_TRACKS: [&str; 4] = [
    "dir_occupancy",
    "ready_tasks",
    "busy_contexts",
    "nc_fill_frac",
];

/// Build the Chrome Trace Format document for a finished run.
///
/// Layout:
/// - `pid 0` ("tasks"): one thread per hardware context, carrying `B`/`E`
///   task spans and nested `X` slices for `raccd_register` /
///   `raccd_invalidate`.
/// - `pid 1` ("machine"): instant events for rare protocol transitions
///   (directory evictions, NC↔coherent flips, ADR resizes, PT flushes) and
///   `C` counter tracks from the interval samples and the campaign queue.
///
/// Events are stably sorted by `ts`, so per-track timestamps are monotone
/// and a `B` precedes its matching same-cycle `E`.
pub fn chrome_trace_json(rec: &Recorder) -> String {
    // (ts, sequence) keys: stable order for equal timestamps preserves the
    // record order, which is causally correct per track.
    let mut entries: Vec<(u64, usize, String)> = Vec::new();
    let mut ctxs: Vec<u64> = Vec::new();
    let mut push = |ts: u64, o: Obj| entries.push((ts, entries.len(), o.render()));

    for ev in rec.events() {
        let ts = ev.cycle();
        if let Event::Campaign {
            action,
            queue_depth,
            ..
        } = *ev
        {
            // Queue-depth counter track (campaign time is host ms, so
            // 1 ms = 1 µs of trace time on the machine pid).
            let args = Obj::new()
                .u64("depth", queue_depth as u64)
                .str("last", action.label());
            push(
                ts,
                trace_base("C", "campaign_queue", ts, PID_MACHINE, 0).raw("args", args.render()),
            );
            continue;
        }
        let Some(&(_, ph, shown, cat, on_ctx, arg_keys)) =
            TRACE_ROWS.iter().find(|row| row.0 == ev.kind())
        else {
            continue;
        };
        let (mut name, mut tid, mut dur) = (shown.to_string(), 0, None);
        let mut args = Obj::new();
        ev.fields(rec.names(), &mut |key, v| {
            match (key, v) {
                ("ctx", Field::U64(ctx)) if on_ctx => tid = ctx,
                ("dur", Field::U64(d)) if ph == "X" => dur = Some(d),
                ("name", Field::Str(task)) if shown.is_empty() => name = task.to_string(),
                ("grow", Field::Bool(grow)) => {
                    name = if grow { "adr_double" } else { "adr_halve" }.to_string()
                }
                _ => {}
            }
            if arg_keys.contains(&key) {
                args.push(key, v);
            }
        });
        if ph == "B" && !ctxs.contains(&tid) {
            ctxs.push(tid);
        }
        let pid = if on_ctx { PID_TASKS } else { PID_MACHINE };
        let mut o = trace_base(ph, &name, ts, pid, tid);
        if !cat.is_empty() {
            o = o.str("cat", cat);
        }
        if ph == "i" {
            o = o.str("s", if on_ctx { "t" } else { "g" });
        }
        if let Some(d) = dur {
            o = o.u64("dur", d);
        }
        push(ts, o.raw("args", args.render()));
    }

    for s in rec.samples() {
        s.fields(&mut |key, v| {
            if COUNTER_TRACKS.contains(&key) {
                let mut args = Obj::new();
                args.push("value", v);
                push(
                    s.cycle,
                    trace_base("C", key, s.cycle, PID_MACHINE, 0).raw("args", args.render()),
                );
            }
        });
    }

    entries.sort_by_key(|e| (e.0, e.1));

    let meta = |name: &str, pid: u64, tid: u64, label: &str| {
        Obj::new()
            .str("ph", "M")
            .str("name", name)
            .u64("pid", pid)
            .u64("tid", tid)
            .raw("args", Obj::new().str("name", label).render())
            .render()
    };
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String, item: &str| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(item);
    };
    emit(&mut out, &meta("process_name", PID_TASKS, 0, "tasks"));
    emit(&mut out, &meta("process_name", PID_MACHINE, 0, "machine"));
    ctxs.sort_unstable();
    for &ctx in &ctxs {
        emit(
            &mut out,
            &meta("thread_name", PID_TASKS, ctx, &format!("ctx {ctx}")),
        );
    }
    for (_, _, line) in &entries {
        emit(&mut out, line);
    }
    out.push_str("\n]}");
    out
}

/// Write the Chrome trace to `w`.
pub fn write_chrome_trace(rec: &Recorder, w: &mut dyn Write) -> io::Result<()> {
    w.write_all(chrome_trace_json(rec).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::recorder::RecorderConfig;
    use crate::sampler::Gauges;
    use raccd_sim::Stats;

    fn demo_recorder() -> Recorder {
        let mut r = Recorder::new(RecorderConfig {
            sample_interval: 10,
            buffer_events: true,
        });
        let jacobi = r.intern("jacobi");
        r.record(Event::TaskCreated {
            cycle: 0,
            task: 0,
            name: jacobi,
            deps: 0,
        });
        r.record(Event::TaskWoken {
            cycle: 0,
            task: 0,
            waker_core: None,
        });
        r.record(Event::TaskScheduled {
            cycle: 5,
            task: 0,
            name: jacobi,
            ctx: 1,
            core: 1,
            wait_cycles: 5,
        });
        r.record(Event::TaskMigrated {
            cycle: 5,
            task: 0,
            from_core: 0,
            to_core: 1,
        });
        r.record(Event::NcrtRegister {
            cycle: 5,
            ctx: 1,
            core: 1,
            task: 0,
            dur: 12,
            entries_added: 2,
            tlb_lookups: 4,
            overflowed: false,
        });
        r.record(Event::NcrtInvalidate {
            cycle: 30,
            ctx: 1,
            core: 1,
            task: 0,
            dur: 8,
            lines_flushed: 3,
        });
        r.record(Event::TaskCompleted {
            cycle: 40,
            task: 0,
            ctx: 1,
            refs: 100,
        });
        let stats = Stats {
            nc_fills: 8,
            coherent_fills: 2,
            ..Default::default()
        };
        r.maybe_sample(
            20,
            &stats,
            Gauges {
                dir_occupied: 3,
                dir_capacity: 8,
                ready_tasks: 1,
                busy_contexts: 1,
                sched_popped: 1,
                sched_steals: 0,
            },
        );
        r.finish(40, &stats, Gauges::default());
        r
    }

    #[test]
    fn absent_waker_core_renders_as_null() {
        let line = event_json(
            &[],
            &Event::TaskWoken {
                cycle: 3,
                task: 7,
                waker_core: None,
            },
        );
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("waker_core"), Some(&json::Value::Null));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = demo_recorder();
        let mut buf = Vec::new();
        write_series_csv(r.samples(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), CSV_COLUMNS.len());
        assert!(header.starts_with("cycle,dir_occupancy"));
        let rows: Vec<_> = lines.collect();
        assert_eq!(rows.len(), r.samples().len());
        for row in rows {
            assert_eq!(row.split(',').count(), CSV_COLUMNS.len());
        }
    }

    #[test]
    fn chrome_trace_is_valid_and_spans_match() {
        let r = demo_recorder();
        let text = chrome_trace_json(&r);
        let v = json::parse(&text).expect("trace is valid JSON");
        let events = v.get("traceEvents").unwrap().items();
        assert!(!events.is_empty());
        let mut depth = 0i64;
        let mut last_ts = 0.0f64;
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if ph == "M" {
                continue;
            }
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= last_ts, "ts monotone after sort");
            last_ts = ts;
            match ph {
                "B" => depth += 1,
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0, "E without matching B");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "every B has a matching E");
        assert!(text.contains("raccd_register"));
        assert!(text.contains("task_migrated"));
        assert!(text.contains("dir_occupancy"));
        assert!(text.contains("thread_name"));
    }

    #[test]
    fn histogram_report_renders() {
        let mut r = Recorder::new(RecorderConfig::default());
        r.hist_mem_latency.record(4);
        r.hist_bank_wait.record(0);
        r.hist_retry_latency.record(96);
        let mut buf = Vec::new();
        write_histograms(&r, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("mem_latency_cycles"));
        assert!(text.contains("wake_to_dispatch_cycles"));
        assert!(text.contains("bank_wait_cycles"));
        assert!(text.contains("retry_latency_cycles"));
    }
}
