//! `serve-warm`: two closed-loop clients, each on one held-open socket
//! connection, draw whole-network sessions against a daemon bound on a
//! pre-tuned shard directory: exact shapes (shard hits), in-bucket
//! jittered shapes (anchored serving) or fused conv chains.

use crate::common::{
    bind_daemon, default_tuner_seed, device, modeled_ms, net_requests, same_result, service_config,
    LiveDaemon, WorkDir,
};
use crate::probe::{timed, Shares, Wire};
use crate::stats::{describe, median, quantile};
use crate::trace::Trace;
use crate::{Args, Report, SETUPS};
use iolb_autotune::plan::{anchor_dim, BatchRequest};
use iolb_cnn::layers::{ConvLayer, Network};
use iolb_core::optimality::TileKind;
use iolb_core::shapes::ConvShape;
use iolb_service::queue::transfer_admissible;
use iolb_service::{
    Backend, BackendSession, Daemon, ServeResult, ServeSource, ShardedStore, TuneRequest,
    TuningService,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Closed-loop clients, each on its own held-open connection.
const CLIENTS: usize = 2;

/// Jittered variants of each network in the fixed jittered set.
const JITTERS: usize = 2;

/// Fixed tail percentile of session latency.
const TAIL_Q: f64 = 0.99;

/// Embedded sessions replayed per client for the service and wire probes.
const PROBE_DRAWS: usize = 150;

#[derive(Clone, Copy, Debug)]
enum Variant {
    Exact,
    Jittered(usize),
    Fused,
}

/// One kind of session: its requests and what set-up served for them.
struct Draw {
    requests: Vec<TuneRequest>,
    expected: Vec<Option<ServeResult>>,
}

/// The tuned zoo: per network, the exact, jittered and fused sessions.
struct Setup {
    service: TuningService,
    draws: Vec<Vec<Draw>>,
    model_cost_ms: f64,
    chains: usize,
    fused_chains: usize,
    records: usize,
    save_ms: f64,
    load_ms: f64,
    dir: WorkDir,
}

fn draw_index(variant: Variant) -> usize {
    match variant {
        Variant::Exact => 0,
        Variant::Fused => 1,
        Variant::Jittered(j) => 2 + j,
    }
}

/// Moves `d` down by 1..=3 inside its anchor bucket (never to or below
/// the bucket's lower edge or the floor); dimensions at or below the
/// floor anchor exactly and stay put.
fn jitter_dim(d: usize, floor: usize, rng: &mut StdRng) -> usize {
    let lo = (d.next_power_of_two() / 2 + 1).max(floor + 1);
    if d <= lo {
        return d;
    }
    let moved = d - rng.gen_range(1..=(d - lo).min(3));
    debug_assert_eq!(anchor_dim(moved, floor), anchor_dim(d, floor));
    moved
}

fn jittered(net: &Network, floor: usize, rng: &mut StdRng) -> Network {
    let layers = net
        .layers
        .iter()
        .map(|layer| {
            let s = layer.shape;
            let hw = jitter_dim(s.hin, floor, rng);
            let shape = ConvShape {
                cin: jitter_dim(s.cin, floor, rng),
                hin: hw,
                win: hw,
                cout: jitter_dim(s.cout, floor, rng),
                ..s
            };
            ConvLayer::repeated(layer.name.clone(), shape, layer.repeat)
        })
        .collect();
    Network { name: net.name, layers }
}

/// Tunes the zoo, its fused chains and its jittered set into a fresh
/// directory, saves it and binds a daemon on it.
fn set_up(seed: u64, rep: usize) -> Result<(Setup, Daemon), String> {
    let device = device();
    let config = service_config(default_tuner_seed());
    let service = TuningService::new(ShardedStore::new(), config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_5e7e);
    let zoo = iolb_cnn::models::all_networks();
    let mut draws = Vec::new();
    let mut model_cost_ms = 0.0;
    let (mut chains, mut fused_chains) = (0, 0);
    for net in &zoo {
        let exact = net_requests(net);
        let expected = service.submit(&exact.requests, &device).wait();
        model_cost_ms += modeled_ms(net, &exact.spans, &expected)
            .ok_or_else(|| format!("{} has an infeasible layer", net.name))?;
        let mut net_draws = vec![Draw { requests: exact.requests, expected }];
        // Fused chains on direct kernels, as `tune-bench replay --fuse` serves them.
        let fused = iolb_cnn::fusion::fused_requests(net, |_| vec![TileKind::Direct]);
        let expected = service.submit(&fused, &device).wait();
        chains += fused.iter().filter(|r| !r.epilogue.is_none()).count();
        fused_chains += expected.iter().flatten().filter(|r| r.fused).count();
        net_draws.push(Draw { requests: fused, expected });
        for _ in 0..JITTERS {
            let requests = net_requests(&jittered(net, config.anchor_floor, &mut rng)).requests;
            let expected = service.submit(&requests, &device).wait();
            net_draws.push(Draw { requests, expected });
        }
        draws.push(net_draws);
    }
    let dir = WorkDir::new(&format!("warm-{rep}"))?;
    let started = Instant::now();
    service.save(&dir.0).map_err(|e| format!("cannot save the warm store: {e}"))?;
    let save_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let daemon = bind_daemon(&dir.0, config)?;
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    let records = daemon.service().merged_store().len();
    Ok((
        Setup {
            service,
            draws,
            model_cost_ms,
            chains,
            fused_chains,
            records,
            save_ms,
            load_ms,
            dir,
        },
        daemon,
    ))
}

/// One client's view of a measurement window.
#[derive(Default)]
struct Client {
    session_ms: Vec<f64>,
    first_reply_ms: Option<f64>,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    shares: Shares,
    /// `(network, variant)` of each session, in order.
    drawn: Vec<(usize, Variant)>,
    trace: Option<Trace>,
}

struct Window {
    clients: Vec<Client>,
    wall_s: f64,
}

fn draw(rng: &mut StdRng, networks: usize) -> (usize, Variant) {
    let net = rng.gen_range(0..networks);
    let variant = match rng.gen_range(0..3) {
        0 => Variant::Exact,
        1 => Variant::Jittered(rng.gen_range(0..JITTERS)),
        _ => Variant::Fused,
    };
    (net, variant)
}

/// Runs `CLIENTS` closed-loop clients for `length`; each holds one
/// connection until its last session returns.
fn window(
    live: &LiveDaemon,
    setup: &Setup,
    seed: u64,
    length: Duration,
    traced: bool,
    origin: Instant,
) -> Result<Window, String> {
    let device = device();
    let started = Instant::now();
    let deadline = started + length;
    let clients: Vec<Result<Client, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let device = device.clone();
                scope.spawn(move || -> Result<Client, String> {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(c as u64 + 1));
                    let mut trace = Trace::new(traced, origin);
                    let mut client = Client::default();
                    let backend = live.connect()?;
                    while Instant::now() < deadline {
                        let (net, variant) = draw(&mut rng, setup.draws.len());
                        let d = &setup.draws[net][draw_index(variant)];
                        let session = ((c as u64) << 32) | client.attempted;
                        client.attempted += 1;
                        let t0 = Instant::now();
                        let outcome = trace.span("bench.session", session, |trace| {
                            let handle = trace.span("daemon.submit", session, |_| backend.submit_batch(&d.requests, &device))?;
                            let unique = handle.unique_workloads();
                            trace.span("daemon.wait", session, |_| handle.wait()).map(|r| (unique, r))
                        });
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let (unique, results) = match outcome {
                            Ok(out) => out,
                            Err(e) => {
                                // The held-open connection is gone: this client is done.
                                client.failed += 1;
                                eprintln!("client {c}: session failed: {e}");
                                break;
                            }
                        };
                        // Hits and fused chains must replay set-up's results to the
                        // bit; jittered requests may be served anchored, and must
                        // resolve wherever set-up resolved them.
                        let lost = results.iter().zip(&d.expected).filter(|(got, want)| got.is_none() && want.is_some()).count();
                        if !matches!(variant, Variant::Jittered(_)) {
                            if let Some(at) = results.iter().zip(&d.expected).position(|(g, w)| !same_result(g, w)) {
                                client.mismatches.push(format!(
                                    "{variant:?} session of network {net}: request {at} differs from set-up ({:?} vs {:?})",
                                    results[at].as_ref().map(|r| (r.cost_ms, r.source)),
                                    d.expected[at].as_ref().map(|r| (r.cost_ms, r.source)),
                                ));
                            }
                        }
                        if lost > 0 {
                            client.failed += 1;
                            continue;
                        }
                        client.first_reply_ms.get_or_insert(started.elapsed().as_secs_f64() * 1e3);
                        client.session_ms.push(ms);
                        client.shares.absorb(unique, &results);
                        client.drawn.push((net, variant));
                    }
                    client.trace = Some(trace);
                    Ok(client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let clients = clients.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Window { clients, wall_s: started.elapsed().as_secs_f64() })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut save_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut setup: Option<(Setup, Daemon)> = None;
    for rep in 0..SETUPS {
        let started = Instant::now();
        let (built, daemon) = set_up(args.seed, rep)?;
        setup_s.push(started.elapsed().as_secs_f64());
        save_ms.push(built.save_ms);
        load_ms.push(built.load_ms);
        if let Some((previous, _)) = &setup {
            if previous.model_cost_ms.to_bits() != built.model_cost_ms.to_bits()
                || previous.records != built.records
            {
                report.mismatch("set-up tuning is not deterministic".into());
            }
        }
        // Dropping the previous set-up releases its daemon and directory.
        setup = Some((built, daemon));
    }
    let (setup, daemon) = setup.expect("SETUPS >= 1");
    let live = LiveDaemon::start(daemon);

    let origin = Instant::now();
    let outcome = (|| -> Result<(Window, Option<Window>), String> {
        if args.trace {
            let untraced = window(&live, &setup, args.seed, args.seconds / 2, false, origin)?;
            let traced = window(&live, &setup, args.seed, args.seconds / 2, true, origin)?;
            Ok((traced, Some(untraced)))
        } else {
            Ok((window(&live, &setup, args.seed, args.seconds, false, origin)?, None))
        }
    })();
    let queue_len = live
        .connect()
        .and_then(|b| b.stats().map_err(|e| e.to_string()))
        .map(|s| s.snapshot.queue_len);
    let stopped = live.stop();
    let (measured, untraced) = outcome?;
    stopped?;
    let queue_len = queue_len?;

    let mut all_ms = Vec::new();
    let mut shares = Shares::default();
    let mut trace = Trace::new(args.trace, origin);
    let mut per_client: Vec<(usize, f64)> = Vec::new();
    for client in measured.clients {
        report.attempted += client.attempted;
        report.failed += client.failed;
        for m in client.mismatches {
            report.mismatch(m);
        }
        all_ms.extend(&client.session_ms);
        per_client.push((client.session_ms.len(), client.first_reply_ms.unwrap_or(f64::NAN)));
        shares.add(&client.shares);
        if let Some(t) = client.trace {
            trace.absorb(t);
        }
    }
    // c0 is the client served most, c1 the one served least.
    per_client.sort_by_key(|c| std::cmp::Reverse(c.0));
    let sessions = all_ms.len();
    let mean = sessions as f64 / CLIENTS as f64;
    let min_share = per_client.iter().map(|c| c.0).min().unwrap_or(0) as f64 / mean.max(1e-12);

    report.set("setup_s", median(&setup_s));
    report.set("ops_per_s", sessions as f64 / measured.wall_s);
    report.set("p50_ms", median(&all_ms));
    report.set("tail_ms", quantile(&all_ms, TAIL_Q));
    report.set("model_cost_ms", setup.model_cost_ms);
    report.set("min_client_share", min_share);
    report.set("success_share", report.success_share());
    report.note(format!(
        "serve.sessions_per_s = {:.2} 1/s ({sessions} sessions in {:.2} s)",
        sessions as f64 / measured.wall_s,
        measured.wall_s
    ));
    report.note(format!("serve.session_ms: {}", describe(&all_ms, TAIL_Q)));
    report.note(format!(
        "serve.min_client_share = {min_share:.6} (sessions per client: {:?}; first reply ms per client: {:?})",
        per_client.iter().map(|c| c.0).collect::<Vec<_>>(),
        per_client.iter().map(|c| (c.1 * 10.0).round() / 10.0).collect::<Vec<_>>(),
    ));
    report.note(format!(
        "serve-warm mix: {} requests, {:.3} hit, {:.3} anchored ({:.3} re-tune), {:.3} fused, {} fresh; queue length {queue_len}; \
         modeled zoo cost {:.6} ms",
        shares.requests,
        shares.share(shares.hits),
        shares.share(shares.anchored),
        shares.share(shares.retunes),
        shares.share(shares.fused),
        shares.fresh,
        setup.model_cost_ms,
    ));

    if args.trace {
        let untraced = untraced.expect("trace runs measure an untraced window");
        let untraced_ms: Vec<f64> =
            untraced.clients.iter().flat_map(|c| c.session_ms.iter().copied()).collect();
        report.set("trace.overhead_share", median(&all_ms) / median(&untraced_ms) - 1.0);
        let submit = trace.durations_us("daemon.submit");
        let wait = trace.durations_us("daemon.wait");
        report.set("daemon.submit_rtt_us.p50", median(&submit));
        report.set("daemon.submit_rtt_us.p99", quantile(&submit, 0.99));
        report.set("daemon.wait_rtt_us.p50", median(&wait));
        report.set("daemon.wait_rtt_us.p99", quantile(&wait, 0.99));
        for (c, (sessions, first)) in per_client.iter().enumerate().take(2) {
            let (s, f) = if c == 0 {
                ("daemon.client_sessions.c0", "daemon.first_reply_ms.c0")
            } else {
                ("daemon.client_sessions.c1", "daemon.first_reply_ms.c1")
            };
            report.set(s, *sessions as f64);
            report.set(f, *first);
        }
        shares.report(&mut report);
        report.set("service.queue_len", queue_len as f64);
        report.set("records.load_ms", median(&load_ms));
        report.set("records.save_ms", median(&save_ms));
        report.set("records.count", setup.records as f64);
        report.set("fusion.chains", setup.chains as f64);
        report.set("fusion.fused_chains", setup.fused_chains as f64);
        let drawn: Vec<(usize, Variant)> = untraced
            .clients
            .iter()
            .flat_map(|c| c.drawn.iter().take(PROBE_DRAWS).copied())
            .collect();
        let (embedded_us, wire_us) = probe_layers(&mut report, &mut trace, &setup, &drawn)?;
        let daemon_session_us = trace.durations_us("bench.session");
        report
            .set("daemon.overhead_us", median(&daemon_session_us) - median(&embedded_us) - wire_us);
        report.take_trace(&trace, "serve-warm", args.seed);
    }
    Ok(report)
}

/// Replays session draws through the embedded service (service layer),
/// encodes and decodes each (wire layer), re-runs the analytic transfer
/// gate on each anchored request (core layer) and segments every
/// network (fusion layer). Returns the embedded session times and the
/// median wire time of one session (µs).
fn probe_layers(
    report: &mut Report,
    trace: &mut Trace,
    setup: &Setup,
    drawn: &[(usize, Variant)],
) -> Result<(Vec<f64>, f64), String> {
    let device = device();
    let config = setup.service.config();
    let mut store =
        ShardedStore::load(&setup.dir.0).map_err(|e| format!("cannot load the warm store: {e}"))?.0;
    store.set_anchor_floor(config.anchor_floor);
    let mut session_us = Vec::new();
    let mut wire = Wire::default();
    let mut gate_us = Vec::new();
    for (i, &(net, variant)) in drawn.iter().enumerate() {
        let session = (1u64 << 40) | i as u64;
        let d = &setup.draws[net][draw_index(variant)];
        let started = Instant::now();
        let results = trace.span("bench.embedded_session", session, |trace| {
            let handle = trace
                .span("service.submit", session, |_| setup.service.submit(&d.requests, &device));
            trace.span("service.wait", session, |_| handle.wait())
        });
        session_us.push(started.elapsed().as_secs_f64() * 1e6);
        wire.probe(trace, session, &device, &d.requests, &results)?;
        for (req, result) in d.requests.iter().zip(&results) {
            if !matches!(result, Some(ServeResult { source: ServeSource::Anchored { .. }, .. })) {
                continue;
            }
            let workload =
                BatchRequest { shape: req.shape, kind: req.kind, epilogue: req.epilogue }
                    .workload(&device);
            let Some(donor) = store.anchor_donor(&workload) else { continue };
            let cfg = donor.config.project_onto(&req.shape, req.kind);
            let donor_shape = donor.workload.shape;
            timed(trace, "core.gate", session, &mut gate_us, || {
                transfer_admissible(
                    &req.shape,
                    &donor_shape,
                    req.kind,
                    &device,
                    &cfg,
                    config.transfer_gap_bound(),
                )
            });
        }
    }
    let mut segment_us = Vec::new();
    for (i, net) in iolb_cnn::models::all_networks().iter().enumerate() {
        timed(trace, "fusion.segment", i as u64, &mut segment_us, || {
            iolb_cnn::fusion::segment(&iolb_cnn::fusion::op_stream(net))
        });
    }
    report.set("service.session_us.p50", median(&session_us));
    report.set("service.session_us.p99", quantile(&session_us, 0.99));
    report.set("core.gate_us", median(&gate_us));
    report.set("fusion.segment_us", median(&segment_us));
    wire.report(report);
    Ok((session_us, wire.session_us()))
}
