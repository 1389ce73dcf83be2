//! `tune-cold`: one closed-loop client tunes the whole model zoo through
//! a fresh in-process daemon per round, one session per network. Its
//! traced run also runs forward passes on the kernels the last round
//! served (`infer::probe`).

use crate::common::{
    bind_daemon, device, modeled_ms, net_requests, same_result, service_config, LiveDaemon,
    NetRequests, WorkDir,
};
use crate::probe::{kernel_of, timed, Shares, Wire};
use crate::stats::{describe, median, quantile};
use crate::trace::Trace;
use crate::{Args, Report, SETUPS};
use iolb_autotune::engine::tune;
use iolb_autotune::plan::{tuner_setup, BatchRequest};
use iolb_cnn::layers::Network;
use iolb_service::{Backend, BackendSession, ServeResult, ShardedStore, TuningService};
use std::time::Instant;

/// Tail percentile of session latency.
const TAIL_Q: f64 = 0.9;

/// Rounds every run makes, however short its window: six sessions each,
/// so at least 102 sessions and ten of them beyond p90. `model_cost_ms`
/// averages these rounds (tuner seeds `seed..seed + ROUNDS`).
const ROUNDS: u64 = 17;

type ZooResults = Vec<Vec<Option<ServeResult>>>;

/// The embedded reference round: the zoo through an in-process service
/// at `seed`. Pushes each session's wall time (µs) onto `session_us`.
fn embedded_round(
    zoo: &[Network],
    reqs: &[NetRequests],
    seed: u64,
    trace: &mut Trace,
    session_us: &mut Vec<f64>,
) -> (ZooResults, f64) {
    let device = device();
    let service = TuningService::new(ShardedStore::new(), service_config(seed));
    let results: ZooResults = reqs
        .iter()
        .enumerate()
        .map(|(at, r)| {
            let session = (1u64 << 40) | at as u64;
            let started = Instant::now();
            let out = trace.span("bench.embedded_session", session, |trace| {
                let handle =
                    trace.span("service.submit", session, |_| service.submit(&r.requests, &device));
                trace.span("service.wait", session, |_| handle.wait())
            });
            session_us.push(started.elapsed().as_secs_f64() * 1e6);
            out
        })
        .collect();
    let cost = zoo_cost(zoo, reqs, &results);
    (results, cost)
}

/// Modeled forward time of the whole zoo on served results (`NaN`
/// when a layer is infeasible).
fn zoo_cost(zoo: &[Network], reqs: &[NetRequests], results: &ZooResults) -> f64 {
    zoo.iter()
        .zip(reqs)
        .zip(results)
        .map(|((net, r), res)| modeled_ms(net, &r.spans, res).unwrap_or(f64::NAN))
        .sum()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let zoo = iolb_cnn::models::all_networks();
    let device = device();
    let mut report = Report::default();

    // Set-up: the embedded reference round the daemon's first round must
    // reproduce bit for bit.
    let mut setup_s = Vec::new();
    let mut embedded_us = Vec::new();
    let mut reference: Option<(ZooResults, f64)> = None;
    let origin = Instant::now();
    let mut setup_trace = Trace::new(args.trace, origin);
    let reqs: Vec<NetRequests> = zoo.iter().map(net_requests).collect();
    for _ in 0..SETUPS {
        let started = Instant::now();
        let (results, cost) =
            embedded_round(&zoo, &reqs, args.seed, &mut setup_trace, &mut embedded_us);
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some((_, previous)) = &reference {
            if previous.to_bits() != cost.to_bits() {
                report
                    .mismatch(format!("embedded reference rounds disagree: {previous} vs {cost}"));
            }
        }
        reference = Some((results, cost));
    }
    let (reference, reference_cost) = reference.expect("SETUPS >= 1");

    let started = Instant::now();
    let deadline = started + args.seconds;
    let trace_from = started + args.seconds / 2;
    let mut trace = Trace::new(false, origin);
    let mut session_ms = Vec::new();
    let mut round_busy_s = Vec::new();
    let mut traced_busy_ms = Vec::new();
    let mut unique_total = 0usize;
    let mut round_costs = Vec::new();
    let mut shares = Shares::default();
    let mut fresh_per_round = Vec::new();
    let mut first_reply_ms = None;
    let mut traced_sessions = 0usize;
    let mut last_round: Option<ZooResults> = None;
    let (mut bind_us, mut sync_us, mut records) = (Vec::new(), Vec::new(), 0);
    let mut round = 0u64;
    while round < ROUNDS || Instant::now() < deadline {
        let traced = args.trace && Instant::now() >= trace_from;
        if traced {
            trace.enable();
        }
        let dir = WorkDir::new(&format!("cold-{round}"))?;
        let daemon = timed(&mut trace, "records.load", round, &mut bind_us, || {
            bind_daemon(&dir.0, service_config(args.seed + round))
        })?;
        let live = LiveDaemon::start(daemon);
        let backend = live.connect()?;
        let round_started = Instant::now();
        let mut results: ZooResults = Vec::new();
        let mut fresh = 0usize;
        for (at, r) in reqs.iter().enumerate() {
            let session = round * 16 + at as u64;
            report.attempted += 1;
            let started = Instant::now();
            let outcome = trace.span("bench.session", session, |trace| {
                let handle = trace.span("daemon.submit", session, |_| {
                    backend.submit_batch(&r.requests, &device)
                })?;
                let unique = handle.unique_workloads();
                trace.span("daemon.wait", session, |_| handle.wait()).map(|res| (unique, res))
            });
            let ms = started.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok((unique, res)) => {
                    // A request the reference resolved must resolve here too.
                    let lost = res
                        .iter()
                        .zip(&reference[at])
                        .filter(|(got, want)| got.is_none() && want.is_some())
                        .count();
                    if lost > 0 {
                        report.failed += 1;
                    } else {
                        session_ms.push(ms);
                        unique_total += unique;
                    }
                    fresh += res.iter().flatten().map(|x| x.fresh_measurements).sum::<usize>();
                    if traced {
                        shares.absorb(unique, &res);
                        traced_sessions += 1;
                        first_reply_ms.get_or_insert(ms);
                    }
                    results.push(res);
                }
                Err(e) => {
                    report.failed += 1;
                    eprintln!("session failed: {e}");
                    results.push(vec![None; r.requests.len()]);
                }
            }
        }
        let busy = round_started.elapsed().as_secs_f64();
        round_busy_s.push(busy);
        if traced {
            traced_busy_ms.push(busy * 1e3);
            fresh_per_round.push(fresh as f64);
            let synced = timed(&mut trace, "records.save", round, &mut sync_us, || backend.sync());
            records = synced.map_err(|e| format!("sync failed: {e}"))?.total;
        }
        round_costs.push(zoo_cost(&zoo, &reqs, &results));
        if round == 0 {
            let first_cost = round_costs[0];
            if first_cost.to_bits() != reference_cost.to_bits() {
                report.mismatch(format!("round 0 modeled cost {first_cost} through the daemon != embedded {reference_cost}"));
            }
            for (net, (got, want)) in zoo.iter().zip(results.iter().zip(&reference)) {
                if got.len() != want.len() || got.iter().zip(want).any(|(g, w)| !same_result(g, w))
                {
                    report.mismatch(format!(
                        "round 0 {}: daemon results differ from embedded",
                        net.name
                    ));
                }
            }
        }
        drop(backend);
        live.stop()?;
        last_round = Some(results);
        round += 1;
    }

    let busy_s: f64 = round_busy_s.iter().sum();
    report.set("setup_s", median(&setup_s));
    report.set("ops_per_s", unique_total as f64 / busy_s);
    report.set("p50_ms", median(&session_ms));
    report.set("tail_ms", quantile(&session_ms, TAIL_Q));
    let model_cost_ms = round_costs[..ROUNDS as usize].iter().sum::<f64>() / ROUNDS as f64;
    report.set("model_cost_ms", model_cost_ms);
    report.set("min_client_share", 1.0);
    report.set("success_share", report.success_share());
    report.note(format!(
        "tune.workloads_per_s = {:.2} 1/s ({unique_total} unique workloads over {round} round(s), {busy_s:.2} s busy)",
        unique_total as f64 / busy_s
    ));
    report.note(format!("tune.session_ms: {}", describe(&session_ms, TAIL_Q)));
    report.note(format!(
        "tune.model_cost_ms = {model_cost_ms:.9} ms (mean of rounds 0..{ROUNDS}; round 0 = {:.9} ms, bit-identical to the embedded run: {})",
        round_costs[0],
        round_costs[0].to_bits() == reference_cost.to_bits()
    ));

    if args.trace {
        let last = last_round.expect("at least one round");
        let wire_us = probe_layers(&mut report, &mut trace, &reqs, &last, args.seed)?;
        crate::infer::probe(&mut report, &mut trace, &zoo, &reqs, &last, args.seed)?;
        let submit = trace.durations_us("daemon.submit");
        let wait = trace.durations_us("daemon.wait");
        report.set("daemon.submit_rtt_us.p50", median(&submit));
        report.set("daemon.submit_rtt_us.p99", quantile(&submit, 0.99));
        report.set("daemon.wait_rtt_us.p50", median(&wait));
        report.set("daemon.wait_rtt_us.p99", quantile(&wait, 0.99));
        report.set("daemon.first_reply_ms.c0", first_reply_ms.unwrap_or(0.0));
        report.set("daemon.client_sessions.c0", traced_sessions as f64);
        report.set("service.session_us.p50", median(&embedded_us));
        report.set("service.session_us.p99", quantile(&embedded_us, 0.99));
        shares.report(&mut report);
        report.set("autotune.fresh_measurements", median(&fresh_per_round));
        report.set("autotune.embedded_round_ms", median(&setup_s) * 1e3);
        report.set("autotune.daemon_round_ms", median(&traced_busy_ms));
        report.set("records.load_ms", median(&bind_us) / 1e3);
        report.set("records.save_ms", median(&sync_us) / 1e3);
        report.set("records.count", records as f64);
        let traced_session_us: Vec<f64> = trace.durations_us("bench.session");
        report
            .set("daemon.overhead_us", median(&traced_session_us) - median(&embedded_us) - wire_us);
        let untraced: Vec<f64> = round_busy_s[..round_busy_s.len() - traced_busy_ms.len()]
            .iter()
            .map(|s| s * 1e3)
            .collect();
        report.set("trace.overhead_share", median(&traced_busy_ms) / median(&untraced) - 1.0);
        setup_trace.absorb(trace);
        report.take_trace(&setup_trace, "tune-cold", args.seed);
    }
    Ok(report)
}

/// Times the autotune, gpusim and wire layers on their own, on the last
/// round's workloads: direct `engine::tune` runs (no service), one
/// `simulate` per served config, and the codec on each session.
/// Returns the median wire time of one session (µs).
fn probe_layers(
    report: &mut Report,
    trace: &mut Trace,
    reqs: &[NetRequests],
    last: &ZooResults,
    seed: u64,
) -> Result<f64, String> {
    let device = device();
    let mut seen = std::collections::BTreeSet::new();
    let mut tune_ms = Vec::new();
    let mut simulate_us = Vec::new();
    let mut wire = Wire::default();
    for (at, (r, results)) in reqs.iter().zip(last).enumerate() {
        let session = at as u64;
        wire.probe(trace, session, &device, &r.requests, results)?;
        for (req, result) in r.requests.iter().zip(results) {
            let Some(result) = result else { continue };
            if !seen.insert(
                BatchRequest { shape: req.shape, kind: req.kind, epilogue: req.epilogue }
                    .workload(&device)
                    .fingerprint(),
            ) {
                continue;
            }
            let mut setup = tuner_setup(
                &req.shape,
                req.kind,
                &device,
                service_config(seed).budget_per_workload,
                seed,
            );
            timed(trace, "autotune.tune", session, &mut tune_ms, || {
                tune(
                    &setup.space,
                    &setup.measurer,
                    &mut setup.model,
                    &mut setup.searcher,
                    setup.params,
                )
            });
            let kernel = kernel_of(req, result);
            timed(trace, "gpusim.simulate", session, &mut simulate_us, || {
                iolb_gpusim::simulate(&device, &kernel).ok()
            });
        }
    }
    let tune_ms: Vec<f64> = tune_ms.iter().map(|us| us / 1e3).collect();
    report.set("autotune.tune_ms.p50", median(&tune_ms));
    report.set("autotune.tune_ms.p90", quantile(&tune_ms, 0.9));
    report.set("gpusim.simulate_us.p50", median(&simulate_us));
    report.set("gpusim.calls", simulate_us.len() as f64);
    wire.report(report);
    Ok(wire.session_us())
}
