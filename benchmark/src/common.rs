//! Pieces the workloads share: the service configuration, the zoo's
//! request lists, scratch directories and in-process daemons.

use iolb_autotune::plan::algo_candidates;
use iolb_cnn::layers::Network;
use iolb_gpusim::DeviceSpec;
use iolb_service::{Daemon, DaemonConfig, ServeResult, ServiceConfig, SocketBackend, TuneRequest};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// The configuration `tune-bench replay` uses: service defaults, no
/// background workers, no speculation; `seed` is the tuner seed.
pub fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig { workers: 0, speculate_neighbors: false, seed, ..ServiceConfig::default() }
}

/// The service's default tuner seed. `serve-warm` tunes with it, so the
/// configs it serves do not change with `--seed` (which picks its
/// traffic instead).
pub fn default_tuner_seed() -> u64 {
    ServiceConfig::default().seed
}

pub fn device() -> DeviceSpec {
    DeviceSpec::v100()
}

/// One request per layer x algorithm candidate, the batch a forward-pass
/// planner submits for a network; `spans[i]` is layer `i`'s range.
pub struct NetRequests {
    pub requests: Vec<TuneRequest>,
    pub spans: Vec<std::ops::Range<usize>>,
}

pub fn net_requests(net: &Network) -> NetRequests {
    let mut requests = Vec::new();
    let mut spans = Vec::new();
    for layer in &net.layers {
        let start = requests.len();
        requests.extend(
            algo_candidates(&layer.shape)
                .into_iter()
                .map(|(kind, _)| TuneRequest::bare(layer.shape, kind)),
        );
        spans.push(start..requests.len());
    }
    NetRequests { requests, spans }
}

/// The network's modeled forward time on the served results: each
/// layer's cheapest candidate, times its repeat count. `None` when a
/// layer has no feasible candidate.
pub fn modeled_ms(
    net: &Network,
    spans: &[std::ops::Range<usize>],
    results: &[Option<ServeResult>],
) -> Option<f64> {
    let mut total = 0.0;
    for (layer, span) in net.layers.iter().zip(spans) {
        let best =
            results[span.clone()].iter().flatten().map(|r| r.cost_ms).min_by(f64::total_cmp)?;
        total += best * layer.repeat as f64;
    }
    Some(total)
}

/// Same config and cost bits: what "bit-identical results" means here.
pub fn same_result(a: &Option<ServeResult>, b: &Option<ServeResult>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.config == b.config && a.cost_ms.to_bits() == b.cost_ms.to_bits() && a.fused == b.fused
        }
        (None, None) => true,
        _ => false,
    }
}

/// A scratch directory under the working directory's `.bench_work`,
/// removed on drop. Paths stay relative so socket paths stay short.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(name: &str) -> Result<Self, String> {
        let dir = Path::new(".bench_work").join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Binds a daemon on `dir` (loading whatever the directory holds).
pub fn bind_daemon(dir: &Path, service: ServiceConfig) -> Result<Daemon, String> {
    let sock = dir.join("daemon.sock");
    Daemon::bind(dir, &sock, DaemonConfig { service, ..DaemonConfig::default() })
        .map(|(d, _)| d)
        .map_err(|e| format!("cannot bind daemon on {}: {e}", dir.display()))
}

/// A daemon serving on its own thread.
pub struct LiveDaemon {
    sock: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

impl LiveDaemon {
    pub fn start(daemon: Daemon) -> Self {
        let sock = daemon.socket_path().to_path_buf();
        Self { sock, thread: std::thread::spawn(move || daemon.run()) }
    }

    pub fn connect(&self) -> Result<SocketBackend, String> {
        SocketBackend::connect(&self.sock)
            .map_err(|e| format!("cannot connect to {}: {e}", self.sock.display()))
    }

    /// Asks the daemon to exit and waits until it has.
    pub fn stop(self) -> Result<(), String> {
        let stop = self
            .connect()
            .and_then(|b| b.shutdown().map_err(|e| format!("daemon shutdown failed: {e}")));
        let run = self.thread.join().map_err(|_| "daemon thread panicked".to_string())?;
        stop?;
        run.map_err(|e| format!("daemon failed: {e}"))
    }
}
