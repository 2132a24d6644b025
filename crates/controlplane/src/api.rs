//! Std-only HTTP/JSON API over the control plane.
//!
//! The same discipline as the telemetry
//! [`MetricsServer`](vfc_telemetry::MetricsServer): a bound
//! `TcpListener`, one accept thread, no keep-alive, no TLS, no streaming
//! — requests are small JSON documents and responses close the
//! connection. The accept thread shares the
//! [`ControlPlaneRuntime`] with the reconcile loop through a mutex;
//! admission calls are cheap (validation + an FFD pack), so holding the
//! lock for a request's duration is fine at control-plane rates.
//!
//! Routes:
//!
//! | route | body | success |
//! |---|---|---|
//! | `POST /vms` | `{"tenant","name","vcpus","vfreq_mhz","mem_gb"?}` | `201 {"id","generation"}` |
//! | `DELETE /vms/{id}` | — | `200 {"id"}` |
//! | `PUT /vms/{id}/vfreq` | `{"vfreq_mhz"}` | `200 {"id","generation"}` |
//! | `GET /vms/{id}` | — | `200 {"id","tenant","name","vcpus","vfreq_mhz","mem_gb","generation","bound","applied_generation","converged"}` |
//! | `GET /tenants/{name}/usage` | — | `200 {"tenant","usage","quota"}` |
//! | `GET /tenants/{name}/bill` | — | `200` invoice JSON (see `docs/BILLING.md`) |
//! | `GET /tenants/{name}/usage/history` | — | `200 {"tenant","records"}` — the tenant's ledger rows |
//! | `GET /healthz` | — | `200 {"status","desired_vms","bound_vms","log_seq"}` |
//! | `GET /metrics` | — | control-plane (+ `vfc_bill_*` when attached) metric families, Prometheus text |
//!
//! The billing routes answer `404` until a [`BillingEngine`] is
//! attached ([`ControlPlaneRuntime::attach_billing`]).
//!
//! Rejections map [`AdmissionError::http_status`]: `400` invalid shape,
//! `403` unknown tenant / quota, `404` unknown id, `429` rate limited,
//! `507` the desired state no longer packs under Eq. 7.
//!
//! ## Overload protection
//!
//! Every limit that stands between a hostile client and the reconcile
//! loop lives in [`ApiServerConfig`], and every refusal is a typed
//! [`OverloadError`] mapped 1:1 to a status — `408` a client that
//! cannot deliver a request within the read timeout (slow loris),
//! `413` a body over the cap (refused from the `Content-Length` header
//! before a single body byte is read), `503` + `Retry-After` when the
//! bounded accept queue or the reconciler backlog saturates. Rate-limit
//! `429`s also carry `Retry-After`. Sheds are counted per reason in
//! `vfc_cp_shed_total` ([`ShedReason`]). Reads (`GET`) are never shed
//! on backlog: an operator must be able to see an overloaded plane.

use crate::admission::{AdmissionError, ControlPlane};
use crate::quota::{TenantQuota, TenantUsage};
use crate::reconcile::{ReconcileSummary, Reconciler};
use crate::spec::SpecId;
use crate::telemetry::ShedReason;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vfc_billing::BillingEngine;
use vfc_cluster::ClusterManager;
use vfc_simcore::MHz;
use vfc_vmm::VmTemplate;

/// Everything the control plane drives, bundled so the HTTP thread and
/// the reconcile loop share one lock.
pub struct ControlPlaneRuntime {
    /// Admission + desired state + metrics.
    pub plane: ControlPlane,
    /// The cluster being reconciled.
    pub cluster: ClusterManager,
    /// The reconcile loop state.
    pub reconciler: Reconciler,
    /// Metering + pricing, when billing is attached.
    pub billing: Option<BillingEngine>,
}

impl ControlPlaneRuntime {
    /// Bundle a control plane, cluster and reconciler. Billing is off
    /// until [`attach_billing`](ControlPlaneRuntime::attach_billing).
    pub fn new(plane: ControlPlane, cluster: ClusterManager, reconciler: Reconciler) -> Self {
        ControlPlaneRuntime {
            plane,
            cluster,
            reconciler,
            billing: None,
        }
    }

    /// Attach a billing engine: the tenants' registered SLA classes are
    /// synced into its pricing config, the cluster starts exporting
    /// per-VM usage, and every [`step`](ControlPlaneRuntime::step) from
    /// now on meters the period into the engine's ledger. The engine
    /// may come from [`BillingEngine::new`] or — for a ledger that
    /// survives restarts — [`BillingEngine::with_ledger`].
    pub fn attach_billing(&mut self, mut engine: BillingEngine) {
        let slas: Vec<(String, vfc_billing::SlaClass)> = self
            .plane
            .slas()
            .map(|(t, c)| (t.to_owned(), c.clone()))
            .collect();
        for (tenant, class) in slas {
            engine.set_class(&tenant, class);
        }
        self.cluster.enable_usage_export();
        self.billing = Some(engine);
    }

    /// One control period: reconcile, run the cluster for a period,
    /// then — with billing attached — meter the period's usage into
    /// the ledger (and checkpoint it, when the engine is persistent).
    pub fn step(&mut self) -> ReconcileSummary {
        let summary = self
            .reconciler
            .reconcile(&mut self.plane, &mut self.cluster);
        self.cluster.run_period();
        if self.billing.is_some() {
            self.meter();
        }
        summary
    }

    /// Drain the cluster's usage export into the billing engine,
    /// attributing VMs to tenants through the reconciler's bindings.
    fn meter(&mut self) {
        // Reverse map binding.vm → tenant over the live specs. Specs
        // deleted earlier this period were undeployed before any
        // controller iterated: the period holds nothing of theirs.
        let mut owner: std::collections::BTreeMap<vfc_cluster::GlobalVmId, String> =
            std::collections::BTreeMap::new();
        for spec in self.plane.store().specs() {
            if let Some(binding) = self.reconciler.binding(spec.id) {
                owner.insert(binding.vm, spec.tenant.clone());
            }
        }
        let Some(engine) = self.billing.as_mut() else {
            return;
        };
        for usage in self.cluster.drain_usage() {
            let rows = crate::billing::aggregate_usage(&usage, |vm| owner.get(&vm).cloned());
            engine.meter_period(usage.period, rows);
        }
        if engine.checkpoint().is_err() {
            self.plane.metrics.billing_checkpoint_failed();
        }
    }
}

#[derive(Deserialize)]
struct CreateReq {
    tenant: String,
    name: String,
    vcpus: u32,
    vfreq_mhz: u32,
    mem_gb: Option<u32>,
}

#[derive(Deserialize)]
struct VfreqReq {
    vfreq_mhz: u32,
}

#[derive(Serialize)]
struct IdResp {
    id: u64,
    generation: u64,
}

#[derive(Serialize)]
struct DeletedResp {
    id: u64,
}

#[derive(Serialize)]
struct UsageResp {
    tenant: String,
    usage: TenantUsage,
    quota: TenantQuota,
}

#[derive(Serialize)]
struct VmResp {
    id: u64,
    tenant: String,
    name: String,
    vcpus: u32,
    vfreq_mhz: u32,
    mem_gb: u32,
    generation: u64,
    bound: bool,
    applied_generation: u64,
    converged: bool,
}

#[derive(Serialize)]
struct HistoryResp {
    tenant: String,
    records: Vec<vfc_billing::UsageRecord>,
}

#[derive(Serialize)]
struct HealthResp {
    status: &'static str,
    desired_vms: u64,
    bound_vms: u64,
    log_seq: u64,
}

#[derive(Serialize)]
struct ErrorResp {
    error: String,
}

/// Overload limits of the API front door.
#[derive(Debug, Clone, Copy)]
pub struct ApiServerConfig {
    /// Total time a client gets to deliver one full request. The clock
    /// covers the whole read — a slow loris trickling one byte per
    /// packet still hits it — and expiry answers `408`.
    pub read_timeout: Duration,
    /// Socket write timeout for the response.
    pub write_timeout: Duration,
    /// Largest accepted request body; a larger `Content-Length` is
    /// refused with `413` before any body byte is read (oversized
    /// headers are cut off the same way).
    pub max_body_bytes: usize,
    /// Bounded accept queue depth: connections beyond it are shed
    /// immediately with `503` + `Retry-After` instead of queueing
    /// without bound behind a busy worker.
    pub queue_depth: usize,
    /// Worker threads draining the accept queue (≥ 1).
    pub workers: usize,
    /// Mutations (`POST`/`PUT`/`DELETE`) are shed with `503` while the
    /// reconciler backlog is at or above this many pending actions,
    /// letting the loop drain before taking new work. `0` disables
    /// backlog shedding. Reads always pass.
    pub max_backlog: usize,
}

impl Default for ApiServerConfig {
    fn default() -> Self {
        ApiServerConfig {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_body_bytes: 64 * 1024,
            queue_depth: 64,
            workers: 2,
            max_backlog: 0,
        }
    }
}

/// Why the front door refused a request before admission saw it. Each
/// variant maps 1:1 to a status via [`OverloadError::http_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadError {
    /// The client did not deliver a full request within the read
    /// timeout (`408`).
    ReadTimeout,
    /// Declared or delivered request size exceeds the cap (`413`).
    BodyTooLarge,
    /// The bounded accept queue was full (`503`, retryable).
    QueueFull,
    /// The reconciler backlog is saturated; mutations are refused until
    /// it drains (`503`, retryable).
    BacklogSaturated,
    /// The bytes were not a parseable HTTP request (`400` — client
    /// error, not overload; it sheds no counter).
    Malformed,
}

impl OverloadError {
    /// The HTTP status the API layer answers with.
    pub fn http_status(&self) -> u16 {
        match self {
            OverloadError::ReadTimeout => 408,
            OverloadError::BodyTooLarge => 413,
            OverloadError::QueueFull | OverloadError::BacklogSaturated => 503,
            OverloadError::Malformed => 400,
        }
    }

    /// Seconds for the `Retry-After` header, when retrying can help.
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            OverloadError::QueueFull | OverloadError::BacklogSaturated => Some(1),
            _ => None,
        }
    }

    /// The shed counter this refusal increments, if it is an overload
    /// (a malformed request is the client's fault, not load).
    pub fn shed_reason(&self) -> Option<ShedReason> {
        match self {
            OverloadError::ReadTimeout => Some(ShedReason::ReadTimeout),
            OverloadError::BodyTooLarge => Some(ShedReason::BodyTooLarge),
            OverloadError::QueueFull => Some(ShedReason::QueueFull),
            OverloadError::BacklogSaturated => Some(ShedReason::Backlog),
            OverloadError::Malformed => None,
        }
    }
}

impl std::fmt::Display for OverloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverloadError::ReadTimeout => write!(f, "request read timed out"),
            OverloadError::BodyTooLarge => write!(f, "request exceeds the body cap"),
            OverloadError::QueueFull => write!(f, "server overloaded: accept queue full"),
            OverloadError::BacklogSaturated => {
                write!(f, "server overloaded: reconcile backlog saturated")
            }
            OverloadError::Malformed => write!(f, "malformed request"),
        }
    }
}

impl std::error::Error for OverloadError {}

/// The API endpoint: owns nothing but the bound address; the accept
/// and worker threads hold the runtime `Arc` and exit with the process.
pub struct ApiServer {
    addr: std::net::SocketAddr,
}

impl ApiServer {
    /// Bind `addr` (use port 0 to let the OS pick) and serve requests
    /// against `runtime` with the default overload limits.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        runtime: Arc<Mutex<ControlPlaneRuntime>>,
    ) -> Result<ApiServer, String> {
        ApiServer::bind_with(addr, runtime, ApiServerConfig::default())
    }

    /// Bind with explicit overload limits: a bounded accept queue
    /// drained by `cfg.workers` threads, with the accept thread
    /// answering `503` the moment the queue is full.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        runtime: Arc<Mutex<ControlPlaneRuntime>>,
        cfg: ApiServerConfig,
    ) -> Result<ApiServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind api addr: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("api local addr: {e}"))?;
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(cfg.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        for worker in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let runtime = Arc::clone(&runtime);
            std::thread::Builder::new()
                .name(format!("vfc-cp-api-{worker}"))
                .spawn(move || loop {
                    // Hold the receiver lock only for the dequeue, not
                    // while handling.
                    let next = match rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => break,
                    };
                    let Ok(mut stream) = next else { break };
                    handle(&runtime, &cfg, &mut stream);
                })
                .map_err(|e| format!("spawn api worker: {e}"))?;
        }
        std::thread::Builder::new()
            .name("vfc-cp-api".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(mut stream)) => {
                            shed(&runtime, OverloadError::QueueFull);
                            let _ = stream.set_write_timeout(Some(cfg.write_timeout));
                            let e = OverloadError::QueueFull;
                            respond(
                                &mut stream,
                                e.http_status(),
                                &err_body(&e.to_string()),
                                e.retry_after(),
                            );
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
            })
            .map_err(|e| format!("spawn api thread: {e}"))?;
        Ok(ApiServer { addr: local })
    }

    /// The actually bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

/// Count a shed in the runtime's metrics (skipped if the lock is
/// poisoned — shedding must never block on accounting).
fn shed(runtime: &Mutex<ControlPlaneRuntime>, e: OverloadError) {
    if let (Some(reason), Ok(mut rt)) = (e.shed_reason(), runtime.lock()) {
        rt.plane.metrics.shed(reason);
    }
}

/// Serve one connection: read within the limits, route, respond.
fn handle(runtime: &Mutex<ControlPlaneRuntime>, cfg: &ApiServerConfig, stream: &mut TcpStream) {
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    match read_request(stream, cfg) {
        Ok((method, path, body)) => {
            let (status, body, retry_after) = route(runtime, cfg, &method, &path, &body);
            respond(stream, status, &body, retry_after);
        }
        Err(e) => {
            shed(runtime, e);
            respond(
                stream,
                e.http_status(),
                &err_body(&e.to_string()),
                e.retry_after(),
            );
        }
    }
}

fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body not utf-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn err_body(msg: &str) -> String {
    serde_json::to_string(&ErrorResp {
        error: msg.to_owned(),
    })
    .unwrap_or_else(|_| "{\"error\":\"unrenderable\"}".into())
}

/// `429`s carry `Retry-After: 1` — the bucket refills next period — so
/// a well-behaved client knows when trying again can succeed.
fn admission_err(e: &AdmissionError) -> (u16, String, Option<u64>) {
    let status = e.http_status();
    let retry_after = (status == 429).then_some(1);
    (status, err_body(&e.to_string()), retry_after)
}

fn ok_json<T: Serialize>(status: u16, value: &T) -> (u16, String, Option<u64>) {
    match serde_json::to_string(value) {
        Ok(body) => (status, body, None),
        Err(e) => (500, err_body(&format!("serialize response: {e}")), None),
    }
}

/// Dispatch one request. Split out of the accept loop so unit tests can
/// call it without sockets. Returns `(status, body, retry_after)`.
fn route(
    runtime: &Mutex<ControlPlaneRuntime>,
    cfg: &ApiServerConfig,
    method: &str,
    path: &str,
    body: &[u8],
) -> (u16, String, Option<u64>) {
    let Ok(mut rt) = runtime.lock() else {
        return (500, err_body("runtime lock poisoned"), None);
    };
    let rt = &mut *rt;
    // Backlog shedding guards mutations only: reads must keep working
    // on an overloaded plane or the operator flies blind.
    if cfg.max_backlog > 0 && matches!(method, "POST" | "PUT" | "DELETE") {
        let backlog = rt.reconciler.backlog(&rt.plane);
        if backlog >= cfg.max_backlog {
            rt.plane.metrics.shed(ShedReason::Backlog);
            let per_period = rt.reconciler.config().max_actions_per_period.max(1);
            // Seconds until the loop has plausibly drained the queue,
            // at one reconcile pass per (≈1 s) period.
            let drain = (backlog / per_period) as u64 + 1;
            let e = OverloadError::BacklogSaturated;
            return (e.http_status(), err_body(&e.to_string()), Some(drain));
        }
    }
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (method, segments.as_slice()) {
        ("POST", ["vms"]) => {
            let req: CreateReq = match parse_body(body) {
                Ok(r) => r,
                Err(e) => return (400, err_body(&format!("bad body: {e}")), None),
            };
            let template = VmTemplate::new(&req.name, req.vcpus, MHz(req.vfreq_mhz))
                .with_mem_gb(req.mem_gb.unwrap_or(4));
            let loads = rt.cluster.node_loads();
            match rt.plane.create_vm(&req.tenant, template, &loads) {
                Ok(id) => ok_json(
                    201,
                    &IdResp {
                        id: id.0,
                        generation: 1,
                    },
                ),
                Err(e) => admission_err(&e),
            }
        }
        ("DELETE", ["vms", id]) => {
            let Ok(id) = id.parse::<u64>() else {
                return (400, err_body("vm id must be an integer"), None);
            };
            match rt.plane.delete_vm(SpecId(id)) {
                Ok(_) => ok_json(200, &DeletedResp { id }),
                Err(e) => admission_err(&e),
            }
        }
        ("PUT", ["vms", id, "vfreq"]) => {
            let Ok(id) = id.parse::<u64>() else {
                return (400, err_body("vm id must be an integer"), None);
            };
            let req: VfreqReq = match parse_body(body) {
                Ok(r) => r,
                Err(e) => return (400, err_body(&format!("bad body: {e}")), None),
            };
            let loads = rt.cluster.node_loads();
            match rt.plane.resize_vm(SpecId(id), MHz(req.vfreq_mhz), &loads) {
                Ok(generation) => ok_json(200, &IdResp { id, generation }),
                Err(e) => admission_err(&e),
            }
        }
        ("GET", ["vms", id]) => {
            let Ok(id) = id.parse::<u64>() else {
                return (400, err_body("vm id must be an integer"), None);
            };
            match rt.plane.store().get(SpecId(id)) {
                Some(spec) => {
                    let binding = rt.reconciler.binding(spec.id);
                    ok_json(
                        200,
                        &VmResp {
                            id,
                            tenant: spec.tenant.clone(),
                            name: spec.template.name.clone(),
                            vcpus: spec.template.vcpus,
                            vfreq_mhz: spec.template.vfreq.as_u32(),
                            mem_gb: spec.template.mem_gb,
                            generation: spec.generation,
                            bound: binding.is_some(),
                            applied_generation: binding
                                .as_ref()
                                .map(|b| b.applied_generation)
                                .unwrap_or(0),
                            converged: binding
                                .map(|b| b.applied_generation == spec.generation)
                                .unwrap_or(false),
                        },
                    )
                }
                None => (404, err_body(&format!("no such vm spec-{id}")), None),
            }
        }
        ("GET", ["tenants", name, "bill"]) => match (&rt.billing, rt.plane.quota(name)) {
            (Some(engine), Some(_)) => {
                let audit = rt.plane.store().audit(name);
                (200, engine.invoice(name, audit).render_json(), None)
            }
            (None, _) => (404, err_body("billing is not enabled"), None),
            (_, None) => (404, err_body(&format!("unknown tenant {name:?}")), None),
        },
        ("GET", ["tenants", name, "usage", "history"]) => {
            match (&rt.billing, rt.plane.quota(name)) {
                (Some(engine), Some(_)) => {
                    let records: Vec<vfc_billing::UsageRecord> =
                        engine.history(name).into_iter().cloned().collect();
                    ok_json(
                        200,
                        &HistoryResp {
                            tenant: (*name).to_owned(),
                            records,
                        },
                    )
                }
                (None, _) => (404, err_body("billing is not enabled"), None),
                (_, None) => (404, err_body(&format!("unknown tenant {name:?}")), None),
            }
        }
        ("GET", ["tenants", name, "usage"]) => match rt.plane.quota(name) {
            Some(quota) => ok_json(
                200,
                &UsageResp {
                    tenant: (*name).to_owned(),
                    usage: rt.plane.usage(name),
                    quota,
                },
            ),
            None => (404, err_body(&format!("unknown tenant {name:?}")), None),
        },
        ("GET", ["healthz"]) => ok_json(
            200,
            &HealthResp {
                status: "ok",
                desired_vms: rt.plane.store().len() as u64,
                bound_vms: rt.reconciler.bound() as u64,
                log_seq: rt.plane.store().seq(),
            },
        ),
        ("GET", ["metrics"]) => {
            // One merged exposition: control-plane families, plus the
            // `vfc_bill_*` families once billing is attached.
            let mut page = rt.plane.metrics.render();
            if let Some(engine) = &rt.billing {
                page.push_str(&engine.render_telemetry());
            }
            (200, page, None)
        }
        _ => (404, err_body(&format!("no route {method} {path}")), None),
    }
}

/// One bounded, deadline-aware read. The socket read timeout is set to
/// the time left until the overall deadline, so a trickling sender
/// cannot reset the clock packet by packet.
fn read_chunk(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    started: std::time::Instant,
    timeout: Duration,
) -> Result<usize, OverloadError> {
    let remaining = timeout
        .checked_sub(started.elapsed())
        .filter(|d| !d.is_zero())
        .ok_or(OverloadError::ReadTimeout)?;
    stream
        .set_read_timeout(Some(remaining))
        .map_err(|_| OverloadError::Malformed)?;
    match stream.read(chunk) {
        Ok(0) => Err(OverloadError::Malformed), // EOF mid-request
        Ok(n) => Ok(n),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Err(OverloadError::ReadTimeout)
        }
        Err(_) => Err(OverloadError::Malformed),
    }
}

/// Read one request — request line, headers, `Content-Length` body —
/// within `cfg`'s limits: the whole read must finish inside
/// `read_timeout`, headers stop at 16 KiB, and a declared body over
/// `max_body_bytes` is refused before a single body byte is read.
fn read_request(
    stream: &mut TcpStream,
    cfg: &ApiServerConfig,
) -> Result<(String, String, Vec<u8>), OverloadError> {
    let started = std::time::Instant::now();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find(&buf, b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > 16 * 1024 {
            return Err(OverloadError::BodyTooLarge);
        }
        let n = read_chunk(stream, &mut chunk, started, cfg.read_timeout)?;
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| OverloadError::Malformed)?;
    let mut lines = head.split("\r\n");
    let mut request_line = lines
        .next()
        .ok_or(OverloadError::Malformed)?
        .split_whitespace();
    let method = request_line
        .next()
        .ok_or(OverloadError::Malformed)?
        .to_owned();
    let path = request_line
        .next()
        .ok_or(OverloadError::Malformed)?
        .to_owned();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > cfg.max_body_bytes {
        return Err(OverloadError::BodyTooLarge);
    }
    let mut body = buf[header_end..].to_vec();
    while body.len() < content_length {
        let n = read_chunk(stream, &mut chunk, started, cfg.read_timeout)?;
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((method, path, body))
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn respond(stream: &mut TcpStream, status: u16, body: &str, retry_after: Option<u64>) {
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        507 => "Insufficient Storage",
        _ => "Internal Server Error",
    };
    let content_type = if body.starts_with('{') {
        "application/json"
    } else {
        "text/plain; version=0.0.4; charset=utf-8"
    };
    let retry = retry_after
        .map(|secs| format!("Retry-After: {secs}\r\n"))
        .unwrap_or_default();
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry}Connection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::TenantQuota;
    use crate::reconcile::ReconcilerConfig;
    use vfc_cluster::Strategy;
    use vfc_cpusched::topology::NodeSpec;

    fn runtime() -> Arc<Mutex<ControlPlaneRuntime>> {
        let mut plane = ControlPlane::new();
        plane.add_tenant(
            "acme",
            TenantQuota {
                max_vms: 4,
                max_vcpus: 16,
                max_mhz: 20_000,
            },
        );
        let cluster = ClusterManager::new(
            vec![NodeSpec::custom("n", 1, 2, 2, MHz(2400)); 2],
            Strategy::FrequencyControl,
            3,
        );
        Arc::new(Mutex::new(ControlPlaneRuntime::new(
            plane,
            cluster,
            Reconciler::new(ReconcilerConfig::default()),
        )))
    }

    fn http(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    fn post(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        http(
            addr,
            &format!(
                "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn crud_round_trip_over_http() {
        let rt = runtime();
        let server = ApiServer::bind("127.0.0.1:0", Arc::clone(&rt)).unwrap();
        let addr = server.local_addr();

        let (status, body) = post(
            addr,
            "POST",
            "/vms",
            r#"{"tenant":"acme","name":"web","vcpus":2,"vfreq_mhz":1200}"#,
        );
        assert_eq!(status, 201, "{body}");
        assert!(body.contains("\"id\":0"), "{body}");

        rt.lock().unwrap().step();

        let (status, body) = post(addr, "PUT", "/vms/0/vfreq", r#"{"vfreq_mhz":1800}"#);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\":2"), "{body}");

        let (status, body) = http(addr, "GET /tenants/acme/usage HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"mhz\":3600"), "{body}");

        let (status, body) = http(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"desired_vms\":1"), "{body}");

        let (status, _) = post(addr, "DELETE", "/vms/0", "");
        assert_eq!(status, 200);
        let (status, _) = post(addr, "DELETE", "/vms/0", "");
        assert_eq!(status, 404, "double delete is a typed miss");

        let (status, body) = http(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);
        assert!(
            body.contains("vfc_cp_admission_accepted_total{tenant=\"acme\"} 3"),
            "{body}"
        );
    }

    #[test]
    fn vm_detail_reports_spec_and_reconcile_state() {
        let rt = runtime();
        let server = ApiServer::bind("127.0.0.1:0", Arc::clone(&rt)).unwrap();
        let addr = server.local_addr();

        let (status, _) = post(
            addr,
            "POST",
            "/vms",
            r#"{"tenant":"acme","name":"web","vcpus":2,"vfreq_mhz":1200}"#,
        );
        assert_eq!(status, 201);

        // Admitted but not yet reconciled: unbound, not converged.
        let (status, body) = http(addr, "GET /vms/0 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"bound\":false"), "{body}");
        assert!(body.contains("\"converged\":false"), "{body}");

        rt.lock().unwrap().step();

        let (status, body) = http(addr, "GET /vms/0 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"tenant\":\"acme\""), "{body}");
        assert!(body.contains("\"vfreq_mhz\":1200"), "{body}");
        assert!(body.contains("\"bound\":true"), "{body}");
        assert!(body.contains("\"applied_generation\":1"), "{body}");
        assert!(body.contains("\"converged\":true"), "{body}");

        let (status, _) = http(addr, "GET /vms/99 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = http(addr, "GET /vms/zebra HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 400);
    }

    #[test]
    fn billing_routes_serve_invoices_and_history_once_attached() {
        let rt = runtime();
        let server = ApiServer::bind("127.0.0.1:0", Arc::clone(&rt)).unwrap();
        let addr = server.local_addr();

        // Without an engine the billing routes are a typed miss.
        let (status, body) = http(addr, "GET /tenants/acme/bill HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("billing is not enabled"), "{body}");

        rt.lock()
            .unwrap()
            .attach_billing(vfc_billing::BillingEngine::new(
                vfc_billing::PricingConfig::linear(1_000, 2_400),
            ));

        let (status, _) = post(
            addr,
            "POST",
            "/vms",
            r#"{"tenant":"acme","name":"web","vcpus":2,"vfreq_mhz":1200}"#,
        );
        assert_eq!(status, 201);
        for _ in 0..3 {
            rt.lock().unwrap().step();
        }

        let (status, body) = http(addr, "GET /tenants/acme/bill HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"tenant\": \"acme\""), "{body}");
        assert!(body.contains("reserved capacity @ 1200 MHz"), "{body}");
        assert!(body.contains("\"creates\": 1"), "{body}");

        let (status, body) = http(
            addr,
            "GET /tenants/acme/usage/history HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"records\""), "{body}");
        assert!(body.contains("\"vfreq_mhz\":1200"), "{body}");

        // The served bill is the oracle's, byte for byte: `generate_invoice`
        // over the ledger and `spec_audit` over the log, both from nothing.
        let (status, body) = post(
            addr,
            "POST",
            "/vms",
            r#"{"tenant":"acme","name":"db","vcpus":1,"vfreq_mhz":600}"#,
        );
        assert_eq!(status, 201, "{body}");
        let (status, body) = post(addr, "PUT", "/vms/0/vfreq", r#"{"vfreq_mhz":900}"#);
        assert_eq!(status, 200, "{body}");
        rt.lock().unwrap().step();
        let (status, body) = http(addr, "DELETE /vms/1 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        rt.lock().unwrap().step();
        let (status, body) = http(addr, "GET /tenants/acme/bill HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        {
            let rt = rt.lock().unwrap();
            let engine = rt.billing.as_ref().unwrap();
            let audit = crate::billing::spec_audit(rt.plane.store().log(), "acme");
            assert_eq!((audit.creates, audit.resizes, audit.deletes), (2, 1, 1));
            let oracle =
                vfc_billing::generate_invoice("acme", audit, engine.ledger(), engine.config());
            assert_eq!(body, oracle.render_json());
            assert!(oracle.lines.len() >= 3, "{body}");
        }

        let (status, _) = http(addr, "GET /tenants/ghost/bill HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 404);

        // The merged exposition carries the billing families too.
        let (status, body) = http(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("vfc_cp_desired_vms"), "{body}");
        assert!(body.contains("vfc_bill_periods_metered_total"), "{body}");
    }

    #[test]
    fn error_statuses_map_the_taxonomy() {
        let rt = runtime();
        let server = ApiServer::bind("127.0.0.1:0", Arc::clone(&rt)).unwrap();
        let addr = server.local_addr();

        // 400: degenerate template (F_v = 0) rejected at the boundary.
        let (status, body) = post(
            addr,
            "POST",
            "/vms",
            r#"{"tenant":"acme","name":"z","vcpus":2,"vfreq_mhz":0}"#,
        );
        assert_eq!(status, 400, "{body}");

        // 403: unregistered tenant.
        let (status, _) = post(
            addr,
            "POST",
            "/vms",
            r#"{"tenant":"ghost","name":"z","vcpus":2,"vfreq_mhz":500}"#,
        );
        assert_eq!(status, 403);

        // 507: a VM wider than any node.
        let (status, body) = post(
            addr,
            "POST",
            "/vms",
            r#"{"tenant":"acme","name":"wide","vcpus":8,"vfreq_mhz":2400}"#,
        );
        assert_eq!(status, 507, "{body}");

        // 404: resize of a VM that never existed.
        let (status, _) = post(addr, "PUT", "/vms/99/vfreq", r#"{"vfreq_mhz":800}"#);
        assert_eq!(status, 404);

        // 400: malformed JSON body.
        let (status, _) = post(addr, "POST", "/vms", "{nope");
        assert_eq!(status, 400);

        // 404: unknown route.
        let (status, _) = http(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 404);
    }

    /// Send raw bytes and return the full response (status line, headers
    /// and body) for header-level assertions.
    fn raw(addr: std::net::SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn slow_loris_and_oversized_bodies_are_shed_typed() {
        let rt = runtime();
        let cfg = ApiServerConfig {
            read_timeout: Duration::from_millis(200),
            max_body_bytes: 1024,
            ..ApiServerConfig::default()
        };
        let server = ApiServer::bind_with("127.0.0.1:0", Arc::clone(&rt), cfg).unwrap();
        let addr = server.local_addr();

        // 413 from the Content-Length header alone — no body byte read.
        let response = raw(
            addr,
            b"POST /vms HTTP/1.1\r\nHost: x\r\nContent-Length: 10000000\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");

        // 408: a slow loris that never finishes its headers.
        let response = raw(addr, b"POST /vms HTTP/1.1\r\n");
        assert!(response.starts_with("HTTP/1.1 408"), "{response}");

        // A well-behaved request still lands after the abuse.
        let (status, _) = http(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);

        let rt = rt.lock().unwrap();
        assert_eq!(rt.plane.metrics.sheds(ShedReason::BodyTooLarge), 1);
        assert_eq!(rt.plane.metrics.sheds(ShedReason::ReadTimeout), 1);
    }

    #[test]
    fn backlog_saturation_sheds_mutations_but_not_reads() {
        let rt = runtime();
        let cfg = ApiServerConfig {
            max_backlog: 1,
            ..ApiServerConfig::default()
        };
        let server = ApiServer::bind_with("127.0.0.1:0", Arc::clone(&rt), cfg).unwrap();
        let addr = server.local_addr();

        // Backlog 0 < 1: the first create is admitted...
        let (status, body) = post(
            addr,
            "POST",
            "/vms",
            r#"{"tenant":"acme","name":"a","vcpus":1,"vfreq_mhz":500}"#,
        );
        assert_eq!(status, 201, "{body}");

        // ...and now one unbound spec saturates the threshold: the next
        // mutation gets 503 + Retry-After while reads keep working.
        let response = raw(
            addr,
            b"POST /vms HTTP/1.1\r\nHost: x\r\nContent-Length: 54\r\n\r\n{\"tenant\":\"acme\",\"name\":\"b\",\"vcpus\":1,\"vfreq_mhz\":500}",
        );
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("Retry-After:"), "{response}");
        let (status, _) = http(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);

        // Reconciling drains the backlog and mutations flow again.
        rt.lock().unwrap().step();
        let (status, body) = post(
            addr,
            "POST",
            "/vms",
            r#"{"tenant":"acme","name":"c","vcpus":1,"vfreq_mhz":500}"#,
        );
        assert_eq!(status, 201, "{body}");
        assert_eq!(
            rt.lock().unwrap().plane.metrics.sheds(ShedReason::Backlog),
            1
        );
    }

    #[test]
    fn rate_limited_mutations_carry_retry_after() {
        let rt = runtime();
        {
            let mut rt = rt.lock().unwrap();
            rt.plane.set_rate_limit(crate::admission::RateLimit {
                burst: 1,
                per_tick: 1,
            });
            rt.plane.add_tenant(
                "tiny",
                TenantQuota {
                    max_vms: 4,
                    max_vcpus: 16,
                    max_mhz: 20_000,
                },
            );
        }
        let server = ApiServer::bind("127.0.0.1:0", Arc::clone(&rt)).unwrap();
        let addr = server.local_addr();
        let body = r#"{"tenant":"tiny","name":"a","vcpus":1,"vfreq_mhz":500}"#;
        let (status, _) = post(addr, "POST", "/vms", body);
        assert_eq!(status, 201);
        let response = raw(
            addr,
            format!(
                "POST /vms HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        assert!(response.contains("Retry-After: 1"), "{response}");
    }
}
