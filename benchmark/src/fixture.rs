//! Set-up: generate the data, build and tune a store, checkpoint it,
//! restore it into a fresh store and (for served workloads) start a server.
//!
//! Everything here is timed as `setup_s`, so work a later change moves out
//! of the measured phase shows up. A run sets up several times and reports
//! medians; the last set-up is the one the workload then runs on.

use crate::reference::RefGraph;
use crate::report::RunOutput;
use crate::stats::{median, timed};
use crate::sut::{self, Data, Design, Processed, Query, Scheduler, ServeHandle, Store, Temp};
use crate::Sizes;
use std::sync::Arc;
use std::time::Instant;

/// Wall time of each set-up step.
#[derive(Copy, Clone, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    pub build_s: f64,
    pub warm_s: f64,
    pub save_ms: f64,
    pub restore_ms: f64,
    pub snapshot_kb: f64,
}

impl SetupTimes {
    fn median_of(all: &[SetupTimes]) -> SetupTimes {
        let m = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            total_s: m(|t| t.total_s),
            generate_s: m(|t| t.generate_s),
            build_s: m(|t| t.build_s),
            warm_s: m(|t| t.warm_s),
            save_ms: m(|t| t.save_ms),
            restore_ms: m(|t| t.restore_ms),
            snapshot_kb: m(|t| t.snapshot_kb),
        }
    }

    /// Record the set-up metrics of whichever mode the run is in.
    pub fn report(&self, data: &Data, out: &mut RunOutput) {
        out.set("setup_s", self.total_s);
        out.set("workloads.generate_s", self.generate_s);
        out.set("model.triples", data.triples() as f64);
        out.set("model.dict_nodes", data.dict_nodes() as f64);
        out.set("core.build_s", self.build_s);
        out.set("relstore.warm_indexes_s", self.warm_s);
        out.set("persist.save_ms", self.save_ms);
        out.set("persist.restore_ms", self.restore_ms);
        out.set("persist.snapshot_kb", self.snapshot_kb);
    }
}

/// A DOTIL-tuned store restored from its own checkpoint.
pub struct Tuned {
    pub data: Data,
    pub store: Arc<Store>,
    pub sched: Arc<Scheduler>,
    pub design: Design,
    /// Running server (served workloads only).
    pub server: Option<ServeHandle>,
}

impl Tuned {
    /// Stop the server, waiting for its threads.
    pub fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Build a cold store and warm its relational indexes, timing both.
fn build_timed(data: &Data, times: &mut SetupTimes) -> sut::Dual {
    let copy = data.copy();
    let (ns, dual) = timed(|| sut::build_store(copy));
    times.build_s = ns as f64 / 1e9;
    let (ns, _) = timed(|| sut::warm_indexes(&dual));
    times.warm_s = ns as f64 / 1e9;
    dual
}

fn tuned_once(sizes: &Sizes, threads: usize, serve: bool) -> Result<(Tuned, SetupTimes), String> {
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let (ns, data) = timed(|| sut::generate(sizes.small_triples));
    times.generate_s = ns as f64 / 1e9;

    let dual = build_timed(&data, &mut times);

    // Two DOTIL passes over the ordered workload in 5 batches.
    let store = sut::share(dual);
    let sched = sut::scheduler(threads);
    let batches = sut::batches(data.queries(), 5);
    let two_passes: Vec<Vec<Query>> = batches.iter().chain(&batches).cloned().collect();
    let mut tuner = sut::Tuner::new();
    let records = sut::run_adaptive(&store, &sched, &mut tuner, &two_passes);
    if records.iter().any(|r| r.errors > 0) {
        return Err("a query failed while tuning the fixture".into());
    }

    let (ns, snapshot) = timed(|| sut::checkpoint(&store, &tuner));
    times.save_ms = ns as f64 / 1e6;
    times.snapshot_kb = snapshot.len() as f64 / 1024.0;
    let design = sut::with_dual(&store, sut::design);
    drop(store);

    let fresh = data.cold_store();
    sut::warm_indexes(&fresh);
    let fresh = sut::share(fresh);
    let (ns, restored) = timed(|| sut::restore(&fresh, &snapshot));
    times.restore_ms = ns as f64 / 1e6;
    restored?;
    let restored_design = sut::with_dual(&fresh, sut::design);
    if restored_design != design {
        return Err(format!(
            "restored design differs from the checkpointed one: {restored_design:?} vs {design:?}"
        ));
    }

    let server = if serve {
        Some(
            sut::start_server(Arc::clone(&fresh), Arc::clone(&sched))
                .map_err(|e| format!("server start: {e}"))?,
        )
    } else {
        None
    };
    times.total_s = t0.elapsed().as_secs_f64();
    Ok((
        Tuned {
            data,
            store: fresh,
            sched,
            design,
            server,
        },
        times,
    ))
}

/// Set up `sizes.setups` times; medians of the timings, last fixture kept.
pub fn tuned(sizes: &Sizes, threads: usize, serve: bool) -> Result<(Tuned, SetupTimes), String> {
    let mut all = Vec::new();
    let mut last = None;
    for _ in 0..sizes.setups.max(1) {
        if let Some(mut previous) = last.take() {
            Tuned::shutdown(&mut previous);
        }
        let (fx, times) = tuned_once(sizes, threads, serve)?;
        all.push(times);
        last = Some(fx);
    }
    Ok((
        last.expect("at least one set-up"),
        SetupTimes::median_of(&all),
    ))
}

/// Cold fixture for `batch_adaptive`: data only, stores are built per
/// repetition. Timed like the tuned one.
pub fn cold(sizes: &Sizes) -> (Data, SetupTimes) {
    let mut all = Vec::new();
    let mut last = None;
    for _ in 0..sizes.setups.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let mut times = SetupTimes::default();
        let (ns, data) = timed(|| sut::generate(sizes.large_triples));
        times.generate_s = ns as f64 / 1e9;
        build_timed(&data, &mut times);
        times.total_s = t0.elapsed().as_secs_f64();
        all.push(times);
        last = Some(data);
    }
    (
        last.expect("at least one set-up"),
        SetupTimes::median_of(&all),
    )
}

/// Compare `got` with the reference result of `q`; returns the expected rows.
pub fn check_rows(
    reference: &RefGraph,
    data: &Data,
    q: &Query,
    got: &[(&str, Vec<Vec<u32>>)],
    failures: &mut Vec<String>,
) -> usize {
    let expected = data
        .ref_query(q)
        .map(|rq| reference.eval(&rq))
        .unwrap_or_default();
    for (path, rows) in got {
        if *rows != expected {
            failures.push(format!(
                "{path}: {} rows, reference has {}: {}",
                rows.len(),
                expected.len(),
                sut::query_text(q)
            ));
        }
    }
    expected.len()
}

/// Run `q` on the routed in-process path, for verification.
pub fn process_checked(
    store: &Store,
    temp: &mut Temp,
    q: &Query,
    failures: &mut Vec<String>,
) -> Option<Processed> {
    match sut::with_dual(store, |dual| sut::process(dual, temp, q)) {
        Ok(out) => Some(out),
        Err(e) => {
            failures.push(format!(
                "process_shared failed: {e}: {}",
                sut::query_text(q)
            ));
            None
        }
    }
}

/// Count verification mismatches as failed operations; print the first few.
pub fn report_failures(failures: &[String], out: &mut RunOutput) {
    for f in failures.iter().take(10) {
        eprintln!("kgbench: verification mismatch: {f}");
    }
    out.failed += failures.len() as u64;
}
