//! Per-layer probes: calls the benchmark makes into single layers, each
//! inside a span, to time a layer on its own.

use crate::stats::median;
use crate::trace::Trace;
use crate::Report;
use iolb_core::optimality::TileKind;
use iolb_gpusim::DeviceSpec;
use iolb_service::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use iolb_service::{ServeResult, ServeSource, TuneRequest};

/// How a set of sessions was served, counted from the results.
#[derive(Default)]
pub struct Shares {
    pub requests: usize,
    pub unique: usize,
    pub hits: usize,
    pub anchored: usize,
    pub retunes: usize,
    pub fused: usize,
    pub fresh: usize,
}

impl Shares {
    pub fn absorb(&mut self, unique: usize, results: &[Option<ServeResult>]) {
        self.unique += unique;
        self.requests += results.len();
        for r in results.iter().flatten() {
            match r.source {
                ServeSource::ShardHit => self.hits += 1,
                ServeSource::Anchored { retune } => {
                    self.anchored += 1;
                    self.retunes += usize::from(retune);
                }
                ServeSource::Stolen | ServeSource::Inline { .. } => {}
            }
            self.fused += usize::from(r.fused);
            self.fresh += r.fresh_measurements;
        }
    }

    pub fn add(&mut self, other: &Shares) {
        self.requests += other.requests;
        self.unique += other.unique;
        self.hits += other.hits;
        self.anchored += other.anchored;
        self.retunes += other.retunes;
        self.fused += other.fused;
        self.fresh += other.fresh;
    }

    /// Sets the `service.*_share` metrics and the dedup ratio.
    pub fn report(&self, report: &mut Report) {
        report.set("service.hit_share", self.share(self.hits));
        report.set("service.anchored_share", self.share(self.anchored));
        report.set("service.retune_share", self.share(self.retunes));
        report.set("service.fused_share", self.share(self.fused));
        report.set("service.dedup_ratio", self.unique as f64 / self.requests.max(1) as f64);
    }

    pub fn share(&self, n: usize) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            n as f64 / self.requests as f64
        }
    }
}

/// Wire costs of one session, medians over its probes.
#[derive(Default)]
pub struct Wire {
    encode_submit_us: Vec<f64>,
    decode_submit_us: Vec<f64>,
    encode_results_us: Vec<f64>,
    decode_results_us: Vec<f64>,
    submit_bytes: Vec<f64>,
    results_bytes: Vec<f64>,
}

impl Wire {
    /// Encodes and decodes one session's submit and results frames the
    /// way client and daemon do; errors if a frame does not round-trip.
    pub fn probe(
        &mut self,
        trace: &mut Trace,
        session: u64,
        device: &DeviceSpec,
        requests: &[TuneRequest],
        results: &[Option<ServeResult>],
    ) -> Result<(), String> {
        let submit = Request::Submit { device: device.clone(), requests: requests.to_vec() };
        let reply = Response::Results { results: results.to_vec() };
        let bytes = timed(trace, "wire.encode_submit", session, &mut self.encode_submit_us, || {
            encode_request(&submit)
        });
        let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
        let back = timed(trace, "wire.decode_submit", session, &mut self.decode_submit_us, || {
            decode_request(&text)
        });
        if back.map_err(|e| e.to_string())? != submit {
            return Err("submit frame does not round-trip".into());
        }
        self.submit_bytes.push(text.len() as f64);
        let bytes =
            timed(trace, "wire.encode_results", session, &mut self.encode_results_us, || {
                encode_response(&reply)
            });
        let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
        let back =
            timed(trace, "wire.decode_results", session, &mut self.decode_results_us, || {
                decode_response(&text)
            });
        if back.map_err(|e| e.to_string())? != reply {
            return Err("results frame does not round-trip".into());
        }
        self.results_bytes.push(text.len() as f64);
        Ok(())
    }

    /// Sets the `wire.*` metrics: medians per session.
    pub fn report(&self, report: &mut Report) {
        report.set("wire.encode_submit_us", median(&self.encode_submit_us));
        report.set("wire.decode_submit_us", median(&self.decode_submit_us));
        report.set("wire.encode_results_us", median(&self.encode_results_us));
        report.set("wire.decode_results_us", median(&self.decode_results_us));
        report.set("wire.submit_bytes", median(&self.submit_bytes));
        report.set("wire.results_bytes", median(&self.results_bytes));
    }

    /// Median wire time of one session: all four codec steps.
    pub fn session_us(&self) -> f64 {
        median(&self.encode_submit_us)
            + median(&self.decode_submit_us)
            + median(&self.encode_results_us)
            + median(&self.decode_results_us)
    }
}

/// Runs `f` in a span and pushes its duration (µs) onto `into`. The
/// result passes through `black_box`, so a discarded pure result is
/// still computed.
pub fn timed<T>(
    trace: &mut Trace,
    name: &'static str,
    session: u64,
    into: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let started = std::time::Instant::now();
    let out = trace.span(name, session, |_| std::hint::black_box(f()));
    into.push(started.elapsed().as_secs_f64() * 1e6);
    out
}

/// The simulator kernel a served config lowers to.
pub fn kernel_of(req: &TuneRequest, result: &ServeResult) -> iolb_gpusim::KernelDesc {
    match req.kind {
        TileKind::Direct => iolb_dataflow::direct_kernel(&req.shape, &result.config),
        TileKind::Winograd(t) => iolb_dataflow::winograd_kernel(&req.shape, t, &result.config),
    }
}
