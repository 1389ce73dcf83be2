//! The kernel probe of `tune-cold`'s traced run: forward passes of
//! AlexNet, SqueezeNet and ResNet-18 on the `iolb-tensor` vector kernels,
//! each conv layer on the algorithm the run's last round served for it.

use crate::common::NetRequests;
use crate::stats::median;
use crate::trace::Trace;
use crate::Report;
use iolb_cnn::layers::{ConvLayer, Network};
use iolb_core::optimality::TileKind;
use iolb_core::Algorithm;
use iolb_service::ServeResult;
use iolb_tensor::conv_ref::ConvParams;
use iolb_tensor::im2col::conv2d_im2col_with_path;
use iolb_tensor::kernel::KernelPath;
use iolb_tensor::tensor::Tensor4;
use iolb_tensor::winograd_conv::{conv2d_winograd_with_plan_path, WinogradPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Largest error a Winograd output may show against the im2col
/// reference, as a share of the reference's largest magnitude (floored
/// at 1).
const WINOGRAD_TOLERANCE: f64 = 1e-3;

/// Fast memory assumed for the computed `Q_lower` (32 KiB of `f32`).
const FAST_MEMORY_ELEMS: f64 = 32.0 * 1024.0 / 4.0;

/// Timed passes over the three networks, after one untimed warm-up pass.
const PASSES: usize = 5;

/// Threads the im2col kernel runs on. One: on a 2-vCPU host a second
/// thread left the pass time unchanged.
const KERNEL_THREADS: usize = 1;

/// The networks a pass runs, by zoo name, each with the metric of its
/// median pass time.
const NETWORKS: [(&str, &str); 3] = [
    ("AlexNet", "infer.alexnet_ms"),
    ("SqueezeNet", "infer.squeezenet_ms"),
    ("ResNet-18", "infer.resnet18_ms"),
];

enum Kernel {
    Im2col,
    Winograd(Box<WinogradPlan>),
}

struct Layer {
    name: String,
    params: ConvParams,
    input: Tensor4,
    weights: Tensor4,
    kernel: Kernel,
    repeat: usize,
    flops: f64,
    q_lower_bytes: f64,
    reference: Tensor4,
    /// Largest reference magnitude, floored at 1.
    scale: f64,
}

struct Net {
    name: &'static str,
    metric: &'static str,
    layers: Vec<Layer>,
}

/// Builds each layer of the three networks on its cheapest served
/// candidate: inputs and weights from `seed`, the Winograd plan and the
/// im2col reference output.
fn set_up(
    zoo: &[Network],
    reqs: &[NetRequests],
    served: &[Vec<Option<ServeResult>>],
    seed: u64,
) -> Result<Vec<Net>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nets = Vec::new();
    for (name, metric) in NETWORKS {
        let at = zoo
            .iter()
            .position(|net| net.name == name)
            .ok_or_else(|| format!("the zoo has no {name}"))?;
        let (net, r, results) = (&zoo[at], &reqs[at], &served[at]);
        let mut layers = Vec::new();
        for (layer, span) in net.layers.iter().zip(&r.spans) {
            let (best, _) = results[span.clone()]
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().map(|r| (i, r.cost_ms)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .ok_or_else(|| format!("{name}/{} has no feasible candidate", layer.name))?;
            layers.push(build_layer(layer, r.requests[span.start + best].kind, &mut rng));
        }
        nets.push(Net { name: net.name, metric, layers });
    }
    Ok(nets)
}

fn build_layer(layer: &ConvLayer, kind: TileKind, rng: &mut StdRng) -> Layer {
    let s = &layer.shape;
    let params = ConvParams::new(s.stride, s.pad);
    let input = Tensor4::random(s.batch, s.cin, s.hin, s.win, rng);
    let weights = Tensor4::random(s.cout, s.cin, s.kh, s.kw, rng);
    let reference =
        conv2d_im2col_with_path(&input, &weights, params, KERNEL_THREADS, KernelPath::Vector);
    let scale = reference.as_slice().iter().fold(1.0f64, |m, &v| m.max(f64::from(v.abs())));
    let (kernel, algo) = match kind {
        TileKind::Direct => (Kernel::Im2col, Algorithm::Direct),
        TileKind::Winograd(t) => {
            (Kernel::Winograd(Box::new(WinogradPlan::new(&weights, t.e))), Algorithm::Winograd(t))
        }
    };
    Layer {
        name: layer.name.clone(),
        params,
        input,
        weights,
        kernel,
        repeat: layer.repeat,
        flops: algo.flops(s),
        q_lower_bytes: algo.io_lower_bound(s, FAST_MEMORY_ELEMS) * 4.0,
        reference,
        scale,
    }
}

/// Largest absolute difference from the reference, as a share of its scale.
fn error_share(out: &Tensor4, layer: &Layer) -> f64 {
    let worst = out
        .as_slice()
        .iter()
        .zip(layer.reference.as_slice())
        .fold(0.0f64, |m, (&a, &b)| m.max(f64::from((a - b).abs())));
    worst / layer.scale
}

/// Runs one layer once on its served kernel; returns the output and its
/// time in seconds.
fn run_layer(layer: &Layer, trace: &mut Trace, session: u64) -> (Tensor4, f64) {
    let started = Instant::now();
    let out = match &layer.kernel {
        Kernel::Im2col => trace.span("kernel.im2col", session, |_| {
            conv2d_im2col_with_path(
                black_box(&layer.input),
                &layer.weights,
                layer.params,
                KERNEL_THREADS,
                KernelPath::Vector,
            )
        }),
        Kernel::Winograd(plan) => trace.span("kernel.winograd", session, |_| {
            conv2d_winograd_with_plan_path(
                black_box(&layer.input),
                plan,
                layer.params,
                KernelPath::Vector,
            )
        }),
    };
    (out, started.elapsed().as_secs_f64())
}

/// Per-kernel totals of the timed passes.
#[derive(Default)]
struct KernelTotals {
    im2col_s: f64,
    winograd_s: f64,
    im2col_flops: f64,
    winograd_flops: f64,
    q_lower_bytes: f64,
}

/// Runs the three networks' conv layers on the kernels `served` picked
/// and reports the `kernel.*` and `infer.*` metrics. Every Direct output
/// must equal the im2col reference bit for bit and every Winograd output
/// lie within `WINOGRAD_TOLERANCE` of it; a miss is a mismatch.
pub fn probe(
    report: &mut Report,
    trace: &mut Trace,
    zoo: &[Network],
    reqs: &[NetRequests],
    served: &[Vec<Option<ServeResult>>],
    seed: u64,
) -> Result<(), String> {
    let nets = set_up(zoo, reqs, served, seed)?;
    for net in &nets {
        for layer in &net.layers {
            black_box(run_layer(layer, &mut Trace::new(false, Instant::now()), 0));
        }
    }
    let mut pass_ms: Vec<Vec<f64>> = vec![Vec::new(); nets.len()];
    let mut totals = KernelTotals::default();
    let mut worst_error = 0.0f64;
    for pass in 0..PASSES {
        for (at, net) in nets.iter().enumerate() {
            let session = (pass * 8 + at) as u64;
            let started = Instant::now();
            trace.span("bench.pass", session, |trace| {
                for layer in &net.layers {
                    for _ in 0..layer.repeat {
                        let (out, secs) = run_layer(layer, trace, session);
                        match layer.kernel {
                            Kernel::Im2col => {
                                totals.im2col_s += secs;
                                totals.im2col_flops += layer.flops;
                            }
                            Kernel::Winograd(_) => {
                                totals.winograd_s += secs;
                                totals.winograd_flops += layer.flops;
                            }
                        }
                        totals.q_lower_bytes += layer.q_lower_bytes;
                        let error = error_share(&out, layer);
                        worst_error = worst_error.max(error);
                        let limit = match layer.kernel {
                            Kernel::Im2col => 0.0,
                            Kernel::Winograd(_) => WINOGRAD_TOLERANCE,
                        };
                        if error.is_nan() || error > limit {
                            report.mismatch(format!(
                                "{}/{}: error {error:e} of scale exceeds {limit:e}",
                                net.name, layer.name
                            ));
                        }
                    }
                }
            });
            pass_ms[at].push(started.elapsed().as_secs_f64() * 1e3);
        }
    }

    for (net, ms) in nets.iter().zip(&pass_ms) {
        report.set(net.metric, median(ms));
    }
    let passes = PASSES as f64;
    report.set("kernel.im2col_ms", totals.im2col_s * 1e3 / passes);
    report.set("kernel.winograd_ms", totals.winograd_s * 1e3 / passes);
    report.set("kernel.im2col_gflops", totals.im2col_flops / totals.im2col_s.max(1e-12) / 1e9);
    report
        .set("kernel.winograd_gflops", totals.winograd_flops / totals.winograd_s.max(1e-12) / 1e9);
    report.set(
        "kernel.winograd_time_share",
        totals.winograd_s / (totals.im2col_s + totals.winograd_s).max(1e-12),
    );
    report.set("kernel.q_lower_bytes", totals.q_lower_bytes / passes);
    report.note(format!(
        "kernel probe: {PASSES} pass(es) on {KERNEL_THREADS} kernel thread(s); median ms per \
         pass {}; worst Winograd error {worst_error:e} of scale (tolerance {WINOGRAD_TOLERANCE:e})",
        nets.iter()
            .zip(&pass_ms)
            .map(|(net, ms)| format!("{} {:.2}", net.name, median(ms)))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    Ok(())
}
