//! Exporters: JSONL event dump, CSV time-series, latency-histogram text,
//! and Chrome Trace Format (Perfetto-loadable) timelines.
//!
//! All three formats are derived from the same [`Event`] stream and
//! [`Sample`] series, so they stay mutually consistent by construction.
//! The Chrome trace uses the convention 1 simulated cycle = 1 µs of trace
//! time: `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! then display cycle counts directly.

use std::io::{self, Write};

use raccd_sim::CoherenceEvent;

use crate::event::Event;
use crate::json::Obj;
use crate::recorder::Recorder;
use crate::sampler::Sample;

/// Render one event as a single-line JSON object. Task names are resolved
/// through `names` (the recorder's intern table).
pub fn event_json(names: &[String], ev: &Event) -> String {
    let name_of = |id: u32| names.get(id as usize).map(String::as_str).unwrap_or("");
    let o = Obj::new().str("kind", ev.kind()).u64("cycle", ev.cycle());
    let o = match *ev {
        Event::TaskCreated {
            task, name, deps, ..
        } => o
            .u64("task", task as u64)
            .str("name", name_of(name))
            .u64("deps", deps as u64),
        Event::TaskWoken {
            task, waker_core, ..
        } => {
            let o = o.u64("task", task as u64);
            match waker_core {
                Some(c) => o.u64("waker_core", c as u64),
                None => o.raw("waker_core", "null"),
            }
        }
        Event::TaskScheduled {
            task,
            name,
            ctx,
            core,
            wait_cycles,
            ..
        } => o
            .u64("task", task as u64)
            .str("name", name_of(name))
            .u64("ctx", ctx as u64)
            .u64("core", core as u64)
            .u64("wait_cycles", wait_cycles),
        Event::TaskCompleted {
            task, ctx, refs, ..
        } => o
            .u64("task", task as u64)
            .u64("ctx", ctx as u64)
            .u64("refs", refs),
        Event::TaskMigrated {
            task,
            from_core,
            to_core,
            ..
        } => o
            .u64("task", task as u64)
            .u64("from_core", from_core as u64)
            .u64("to_core", to_core as u64),
        Event::NcrtRegister {
            ctx,
            core,
            task,
            dur,
            entries_added,
            tlb_lookups,
            overflowed,
            ..
        } => o
            .u64("ctx", ctx as u64)
            .u64("core", core as u64)
            .u64("task", task as u64)
            .u64("dur", dur)
            .u64("entries_added", entries_added as u64)
            .u64("tlb_lookups", tlb_lookups as u64)
            .bool("overflowed", overflowed),
        Event::NcrtInvalidate {
            ctx,
            core,
            task,
            dur,
            lines_flushed,
            ..
        } => o
            .u64("ctx", ctx as u64)
            .u64("core", core as u64)
            .u64("task", task as u64)
            .u64("dur", dur)
            .u64("lines_flushed", lines_flushed),
        Event::PtTransition {
            prev_owner,
            page,
            flushed_lines,
            ..
        } => o
            .u64("prev_owner", prev_owner as u64)
            .u64("page", page)
            .u64("flushed_lines", flushed_lines),
        Event::TaskRetry {
            task, ctx, attempt, ..
        } => o
            .u64("task", task as u64)
            .u64("ctx", ctx as u64)
            .u64("attempt", attempt as u64),
        Event::WatchdogFired {
            last_progress,
            threshold,
            ..
        } => o
            .u64("last_progress", last_progress)
            .u64("threshold", threshold),
        Event::ModeDowngrade {
            overflows, retries, ..
        } => o.u64("overflows", overflows).u64("retries", retries),
        Event::Campaign {
            fingerprint,
            seed,
            queue_depth,
            ..
        } => o
            .str("fp", &format!("{fingerprint:016x}"))
            .u64("seed", seed)
            .u64("queue_depth", queue_depth as u64),
        Event::Coherence { ref ev, .. } => match *ev {
            CoherenceEvent::CoherentFill {
                core,
                block,
                write,
                from_owner,
            } => o
                .u64("core", core as u64)
                .u64("block", block.0)
                .bool("write", write)
                .bool("from_owner", from_owner),
            CoherenceEvent::NcFill { core, block, write } => o
                .u64("core", core as u64)
                .u64("block", block.0)
                .bool("write", write),
            CoherenceEvent::Upgrade { core, block } => {
                o.u64("core", core as u64).u64("block", block.0)
            }
            CoherenceEvent::DirEviction { block }
            | CoherenceEvent::NcToCoherent { block }
            | CoherenceEvent::CoherentToNc { block } => o.u64("block", block.0),
            CoherenceEvent::FlushNc { core, lines } => {
                o.u64("core", core as u64).u64("lines", lines as u64)
            }
            CoherenceEvent::AdrResize {
                bank,
                grow,
                new_entries,
                blocked_cycles,
            } => o
                .u64("bank", bank as u64)
                .bool("grow", grow)
                .u64("new_entries", new_entries as u64)
                .u64("blocked_cycles", blocked_cycles),
            CoherenceEvent::FaultInjected { site, from, to } => o
                .str("site", site.label())
                .u64("from", from as u64)
                .u64("to", to as u64),
            CoherenceEvent::Nack { from, to } => o.u64("from", from as u64).u64("to", to as u64),
            CoherenceEvent::RetryRecovered { attempts, delay } => {
                o.u64("attempts", attempts as u64).u64("delay", delay)
            }
            CoherenceEvent::RetryExhausted { from, to, attempts } => o
                .u64("from", from as u64)
                .u64("to", to as u64)
                .u64("attempts", attempts as u64),
            CoherenceEvent::DirEntryLost { block } => o.u64("block", block.0),
        },
    };
    o.render()
}

/// Dump a buffered event slice as JSONL, one object per line.
pub fn write_events_jsonl(names: &[String], events: &[Event], w: &mut dyn Write) -> io::Result<()> {
    for ev in events {
        writeln!(w, "{}", event_json(names, ev))?;
    }
    Ok(())
}

/// Column order of [`write_series_csv`].
pub const CSV_COLUMNS: &[&str] = &[
    "cycle",
    "dir_occupancy",
    "dir_occupied",
    "dir_capacity",
    "ready_tasks",
    "busy_contexts",
    "sched_popped",
    "sched_steals",
    "nc_fill_frac",
    "d_dir_accesses",
    "d_nc_fills",
    "d_coherent_fills",
    "d_invalidations",
    "d_l1_writebacks",
    "d_mem_reads",
    "d_mem_writes",
    "d_bank_wait_cycles",
    "d_refs",
    "d_tasks",
];

/// Write the interval time-series as CSV with a header row.
pub fn write_series_csv(samples: &[Sample], w: &mut dyn Write) -> io::Result<()> {
    writeln!(w, "{}", CSV_COLUMNS.join(","))?;
    for s in samples {
        writeln!(
            w,
            "{},{:.6},{},{},{},{},{},{},{:.6},{},{},{},{},{},{},{},{},{},{}",
            s.cycle,
            s.dir_occupancy,
            s.dir_occupied,
            s.dir_capacity,
            s.ready_tasks,
            s.busy_contexts,
            s.sched_popped,
            s.sched_steals,
            s.nc_fill_frac,
            s.d_dir_accesses,
            s.d_nc_fills,
            s.d_coherent_fills,
            s.d_invalidations,
            s.d_l1_writebacks,
            s.d_mem_reads,
            s.d_mem_writes,
            s.d_bank_wait_cycles,
            s.d_refs,
            s.d_tasks
        )?;
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

/// Build the Chrome Trace Format document for a finished run.
///
/// Layout:
/// - `pid 0` ("tasks"): one thread per hardware context, carrying `B`/`E`
///   task spans and nested `X` slices for `raccd_register` /
///   `raccd_invalidate`.
/// - `pid 1` ("machine"): instant events for rare protocol transitions
///   (directory evictions, NC↔coherent flips, ADR resizes, PT flushes) and
///   `C` counter tracks from the interval samples. High-volume fill and
///   upgrade events are deliberately left to the JSONL dump.
///
/// Events are stably sorted by `ts`, so per-track timestamps are monotone
/// and a `B` precedes its matching same-cycle `E`.
pub fn chrome_trace_json(rec: &Recorder) -> String {
    // (ts, sequence) keys: stable order for equal timestamps preserves the
    // record order, which is causally correct per track.
    let mut entries: Vec<(u64, usize, String)> = Vec::new();
    let mut ctxs: Vec<u64> = Vec::new();
    let mut seq = 0usize;
    let mut push = |entries: &mut Vec<(u64, usize, String)>, ts: u64, o: Obj| {
        entries.push((ts, seq, o.render()));
        seq += 1;
    };

    for ev in rec.events() {
        let ts = ev.cycle();
        match *ev {
            Event::TaskScheduled {
                task,
                name,
                ctx,
                wait_cycles,
                ..
            } => {
                if !ctxs.contains(&(ctx as u64)) {
                    ctxs.push(ctx as u64);
                }
                let o = trace_base("B", rec.name(name), ts, PID_TASKS, ctx as u64)
                    .str("cat", "task")
                    .raw(
                        "args",
                        Obj::new()
                            .u64("task", task as u64)
                            .u64("wait_cycles", wait_cycles)
                            .render(),
                    );
                push(&mut entries, ts, o);
            }
            Event::TaskCompleted {
                task, ctx, refs, ..
            } => {
                let o = trace_base("E", "", ts, PID_TASKS, ctx as u64).raw(
                    "args",
                    Obj::new()
                        .u64("task", task as u64)
                        .u64("refs", refs)
                        .render(),
                );
                push(&mut entries, ts, o);
            }
            Event::NcrtRegister {
                ctx,
                dur,
                entries_added,
                tlb_lookups,
                overflowed,
                ..
            } => {
                let o = trace_base("X", "raccd_register", ts, PID_TASKS, ctx as u64)
                    .str("cat", "raccd")
                    .u64("dur", dur)
                    .raw(
                        "args",
                        Obj::new()
                            .u64("entries_added", entries_added as u64)
                            .u64("tlb_lookups", tlb_lookups as u64)
                            .bool("overflowed", overflowed)
                            .render(),
                    );
                push(&mut entries, ts, o);
            }
            Event::NcrtInvalidate {
                ctx,
                dur,
                lines_flushed,
                ..
            } => {
                let o = trace_base("X", "raccd_invalidate", ts, PID_TASKS, ctx as u64)
                    .str("cat", "raccd")
                    .u64("dur", dur)
                    .raw(
                        "args",
                        Obj::new().u64("lines_flushed", lines_flushed).render(),
                    );
                push(&mut entries, ts, o);
            }
            Event::PtTransition {
                prev_owner,
                page,
                flushed_lines,
                ..
            } => {
                let o = trace_base("i", "pt_private_to_shared", ts, PID_MACHINE, 0)
                    .str("cat", "machine")
                    .str("s", "g")
                    .raw(
                        "args",
                        Obj::new()
                            .u64("prev_owner", prev_owner as u64)
                            .u64("page", page)
                            .u64("flushed_lines", flushed_lines)
                            .render(),
                    );
                push(&mut entries, ts, o);
            }
            Event::Coherence { ref ev, .. } => {
                let inst = |name: &str, args: Obj| {
                    trace_base("i", name, ts, PID_MACHINE, 0)
                        .str("cat", "machine")
                        .str("s", "g")
                        .raw("args", args.render())
                };
                match *ev {
                    CoherenceEvent::DirEviction { block } => {
                        let o = inst("dir_eviction", Obj::new().u64("block", block.0));
                        push(&mut entries, ts, o);
                    }
                    CoherenceEvent::NcToCoherent { block } => {
                        let o = inst("nc_to_coherent", Obj::new().u64("block", block.0));
                        push(&mut entries, ts, o);
                    }
                    CoherenceEvent::CoherentToNc { block } => {
                        let o = inst("coherent_to_nc", Obj::new().u64("block", block.0));
                        push(&mut entries, ts, o);
                    }
                    CoherenceEvent::FlushNc { core, lines } => {
                        let o = inst(
                            "flush_nc",
                            Obj::new()
                                .u64("core", core as u64)
                                .u64("lines", lines as u64),
                        );
                        push(&mut entries, ts, o);
                    }
                    CoherenceEvent::AdrResize {
                        bank,
                        grow,
                        new_entries,
                        blocked_cycles,
                    } => {
                        let o = inst(
                            if grow { "adr_double" } else { "adr_halve" },
                            Obj::new()
                                .u64("bank", bank as u64)
                                .u64("new_entries", new_entries as u64)
                                .u64("blocked_cycles", blocked_cycles),
                        );
                        push(&mut entries, ts, o);
                    }
                    CoherenceEvent::RetryExhausted { from, to, attempts } => {
                        let o = inst(
                            "retry_exhausted",
                            Obj::new()
                                .u64("from", from as u64)
                                .u64("to", to as u64)
                                .u64("attempts", attempts as u64),
                        );
                        push(&mut entries, ts, o);
                    }
                    CoherenceEvent::DirEntryLost { block } => {
                        let o = inst("dir_entry_lost", Obj::new().u64("block", block.0));
                        push(&mut entries, ts, o);
                    }
                    // Per-reference fills/upgrades (and per-message fault
                    // outcomes) would dwarf the trace; they live in the
                    // JSONL dump and the counters below.
                    CoherenceEvent::CoherentFill { .. }
                    | CoherenceEvent::NcFill { .. }
                    | CoherenceEvent::Upgrade { .. }
                    | CoherenceEvent::FaultInjected { .. }
                    | CoherenceEvent::Nack { .. }
                    | CoherenceEvent::RetryRecovered { .. } => {}
                }
            }
            Event::WatchdogFired {
                last_progress,
                threshold,
                ..
            } => {
                let o = trace_base("i", "watchdog_fired", ts, PID_MACHINE, 0)
                    .str("cat", "machine")
                    .str("s", "g")
                    .raw(
                        "args",
                        Obj::new()
                            .u64("last_progress", last_progress)
                            .u64("threshold", threshold)
                            .render(),
                    );
                push(&mut entries, ts, o);
            }
            Event::ModeDowngrade {
                overflows, retries, ..
            } => {
                let o = trace_base("i", "mode_downgrade", ts, PID_MACHINE, 0)
                    .str("cat", "machine")
                    .str("s", "g")
                    .raw(
                        "args",
                        Obj::new()
                            .u64("overflows", overflows)
                            .u64("retries", retries)
                            .render(),
                    );
                push(&mut entries, ts, o);
            }
            Event::TaskRetry {
                task, ctx, attempt, ..
            } => {
                let o = trace_base("i", "task_retry", ts, PID_TASKS, ctx as u64)
                    .str("cat", "task")
                    .str("s", "t")
                    .raw(
                        "args",
                        Obj::new()
                            .u64("task", task as u64)
                            .u64("attempt", attempt as u64)
                            .render(),
                    );
                push(&mut entries, ts, o);
            }
            Event::Campaign {
                action,
                queue_depth,
                ..
            } => {
                // Queue-depth counter track (campaign time is host ms, so
                // 1 ms = 1 µs of trace time on the machine pid).
                let o = trace_base("C", "campaign_queue", ts, PID_MACHINE, 0).raw(
                    "args",
                    Obj::new()
                        .u64("depth", queue_depth as u64)
                        .str("last", action.label())
                        .render(),
                );
                push(&mut entries, ts, o);
            }
            Event::TaskMigrated {
                task,
                from_core,
                to_core,
                ..
            } => {
                let o = trace_base("i", "task_migrated", ts, PID_MACHINE, 0)
                    .str("cat", "machine")
                    .str("s", "g")
                    .raw(
                        "args",
                        Obj::new()
                            .u64("task", task as u64)
                            .u64("from_core", from_core as u64)
                            .u64("to_core", to_core as u64)
                            .render(),
                    );
                push(&mut entries, ts, o);
            }
            Event::TaskCreated { .. } | Event::TaskWoken { .. } => {}
        }
    }

    for s in rec.samples() {
        let counter = |name: &str, value: String| {
            trace_base("C", name, s.cycle, PID_MACHINE, 0)
                .raw("args", Obj::new().raw("value", value).render())
        };
        let ts = s.cycle;
        let o = counter("dir_occupancy", crate::json::num(s.dir_occupancy));
        push(&mut entries, ts, o);
        let o = counter("ready_tasks", s.ready_tasks.to_string());
        push(&mut entries, ts, o);
        let o = counter("busy_contexts", (s.busy_contexts as u64).to_string());
        push(&mut entries, ts, o);
        let o = counter("nc_fill_frac", crate::json::num(s.nc_fill_frac));
        push(&mut entries, ts, o);
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
    fn jsonl_lines_parse_and_roundtrip_kinds() {
        let r = demo_recorder();
        let mut buf = Vec::new();
        write_events_jsonl(r.names(), r.events(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut kinds = Vec::new();
        for line in text.lines() {
            let v = json::parse(line).expect("every JSONL line is valid JSON");
            kinds.push(v.get("kind").unwrap().as_str().unwrap().to_string());
            assert!(v.get("cycle").unwrap().as_f64().is_some());
        }
        assert_eq!(
            kinds,
            vec![
                "task_created",
                "task_woken",
                "task_scheduled",
                "task_migrated",
                "ncrt_register",
                "ncrt_invalidate",
                "task_completed"
            ]
        );
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

    #[test]
    fn fault_events_export_to_jsonl_and_trace() {
        use raccd_sim::FaultSite;
        let mut r = Recorder::new(RecorderConfig {
            sample_interval: 10,
            buffer_events: true,
        });
        r.record(Event::Coherence {
            cycle: 5,
            ev: CoherenceEvent::FaultInjected {
                site: FaultSite::NocDrop,
                from: 0,
                to: 3,
            },
        });
        r.record(Event::Coherence {
            cycle: 6,
            ev: CoherenceEvent::Nack { from: 3, to: 0 },
        });
        r.record(Event::Coherence {
            cycle: 7,
            ev: CoherenceEvent::RetryRecovered {
                attempts: 2,
                delay: 96,
            },
        });
        r.record(Event::Coherence {
            cycle: 8,
            ev: CoherenceEvent::RetryExhausted {
                from: 0,
                to: 3,
                attempts: 9,
            },
        });
        r.record(Event::TaskRetry {
            cycle: 9,
            task: 4,
            ctx: 1,
            attempt: 1,
        });
        r.record(Event::WatchdogFired {
            cycle: 10,
            last_progress: 2,
            threshold: 5,
        });
        r.record(Event::ModeDowngrade {
            cycle: 11,
            overflows: 12,
            retries: 30,
        });
        let mut buf = Vec::new();
        write_events_jsonl(r.names(), r.events(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut kinds = Vec::new();
        for line in text.lines() {
            let v = json::parse(line).expect("fault JSONL lines are valid");
            kinds.push(v.get("kind").unwrap().as_str().unwrap().to_string());
        }
        assert_eq!(
            kinds,
            vec![
                "fault_injected",
                "nack",
                "retry_recovered",
                "retry_exhausted",
                "task_retry",
                "watchdog_fired",
                "mode_downgrade"
            ]
        );
        assert!(text.contains("\"site\":\"noc_drop\""));
        r.finish(20, &Stats::default(), Gauges::default());
        let trace = chrome_trace_json(&r);
        json::parse(&trace).expect("trace with fault events is valid JSON");
        assert!(trace.contains("retry_exhausted"));
        assert!(trace.contains("watchdog_fired"));
        assert!(trace.contains("mode_downgrade"));
        assert!(trace.contains("task_retry"));
    }
}
