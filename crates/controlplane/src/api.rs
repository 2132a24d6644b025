//! Std-only HTTP/JSON API over the control plane.
//!
//! [`ApiServer`] is the shared [`Listener`]
//! with this module's router as its handler. No keep-alive, no TLS, no
//! streaming — requests are small JSON documents and responses close the
//! connection. The workers share the [`ControlPlaneRuntime`] with the
//! reconcile loop through a mutex; admission calls are cheap (validation
//! and an FFD pack), so holding the lock for a request's duration is fine
//! at control-plane rates.
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
//! loop lives in [`ApiServerConfig`]. The listener refuses and counts —
//! without the runtime lock — `408` a client that cannot deliver a
//! request within the read timeout (slow loris), `413` a body over the
//! cap (refused from the `Content-Length` header before a single body
//! byte is read) and `503` + `Retry-After` when the bounded accept queue
//! is full; the router answers mutations `503` + `Retry-After` while the
//! reconciler backlog saturates. Rate-limit `429`s also carry
//! `Retry-After`. Sheds are counted per reason in `vfc_cp_shed_total`
//! ([`ShedReason`]). Reads (`GET`) are never shed on backlog: an
//! operator must be able to see an overloaded plane.

use crate::admission::{AdmissionError, ControlPlane};
use crate::quota::{TenantQuota, TenantUsage};
use crate::reconcile::{ReconcileSummary, Reconciler};
use crate::spec::SpecId;
use crate::telemetry::ShedReason;
use serde::{Deserialize, Serialize};
use std::net::ToSocketAddrs;
use std::sync::{Arc, Mutex};
use vfc_billing::BillingEngine;
use vfc_cluster::ClusterManager;
use vfc_simcore::MHz;
use vfc_telemetry::http::{Limits, Listener, Response};
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
#[derive(Debug, Clone, Copy, Default)]
pub struct ApiServerConfig {
    /// The listener's limits: read and write timeouts, body cap, accept
    /// queue depth and workers.
    pub limits: Limits,
    /// Mutations (`POST`/`PUT`/`DELETE`) are shed with `503` while the
    /// reconciler backlog is at or above this many pending actions,
    /// letting the loop drain before taking new work. `0` disables
    /// backlog shedding. Reads always pass.
    pub max_backlog: usize,
}

/// The API endpoint: the shared listener, routing into the runtime. The
/// listener's threads hold the runtime `Arc` and exit with the process.
pub struct ApiServer {
    listener: Listener,
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

    /// Bind with explicit overload limits. From here on the runtime's
    /// `vfc_cp_shed_total` reads the listener's own refusal counts.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        runtime: Arc<Mutex<ControlPlaneRuntime>>,
        cfg: ApiServerConfig,
    ) -> Result<ApiServer, String> {
        let served = Arc::clone(&runtime);
        let listener = Listener::bind(addr, cfg.limits, move |method, path, body| {
            route(&served, cfg.max_backlog, method, path, body)
        })?;
        runtime
            .lock()
            .map_err(|_| "runtime lock poisoned".to_owned())?
            .plane
            .metrics
            .count_refusals_of(&listener);
        Ok(ApiServer { listener })
    }

    /// The actually bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr()
    }
}

fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body not utf-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn error(status: u16, msg: &str) -> Response {
    let body = serde_json::to_string(&ErrorResp {
        error: msg.to_owned(),
    })
    .unwrap_or_else(|_| "{\"error\":\"unrenderable\"}".into());
    Response::json(status, body)
}

/// `429`s carry `Retry-After: 1` — the bucket refills next period — so
/// a well-behaved client knows when trying again can succeed.
fn admission_err(e: &AdmissionError) -> Response {
    let status = e.http_status();
    Response {
        retry_after: (status == 429).then_some(1),
        ..error(status, &e.to_string())
    }
}

fn ok_json<T: Serialize>(status: u16, value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(status, body),
        Err(e) => error(500, &format!("serialize response: {e}")),
    }
}

/// Answer one well-formed request against the runtime.
fn route(
    runtime: &Mutex<ControlPlaneRuntime>,
    max_backlog: usize,
    method: &str,
    path: &str,
    body: &[u8],
) -> Response {
    let Ok(mut rt) = runtime.lock() else {
        return error(500, "runtime lock poisoned");
    };
    let rt = &mut *rt;
    // Backlog shedding guards mutations only: reads must keep working
    // on an overloaded plane or the operator flies blind.
    if max_backlog > 0 && matches!(method, "POST" | "PUT" | "DELETE") {
        let backlog = rt.reconciler.backlog(&rt.plane);
        if backlog >= max_backlog {
            rt.plane.metrics.shed(ShedReason::Backlog);
            let per_period = rt.reconciler.config().max_actions_per_period.max(1);
            // Seconds until the loop has plausibly drained the queue,
            // at one reconcile pass per (≈1 s) period.
            let drain = (backlog / per_period) as u64 + 1;
            return Response {
                retry_after: Some(drain),
                ..error(503, "server overloaded: reconcile backlog saturated")
            };
        }
    }
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (method, segments.as_slice()) {
        ("POST", ["vms"]) => {
            let req: CreateReq = match parse_body(body) {
                Ok(r) => r,
                Err(e) => return error(400, &format!("bad body: {e}")),
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
                return error(400, "vm id must be an integer");
            };
            match rt.plane.delete_vm(SpecId(id)) {
                Ok(_) => ok_json(200, &DeletedResp { id }),
                Err(e) => admission_err(&e),
            }
        }
        ("PUT", ["vms", id, "vfreq"]) => {
            let Ok(id) = id.parse::<u64>() else {
                return error(400, "vm id must be an integer");
            };
            let req: VfreqReq = match parse_body(body) {
                Ok(r) => r,
                Err(e) => return error(400, &format!("bad body: {e}")),
            };
            let loads = rt.cluster.node_loads();
            match rt.plane.resize_vm(SpecId(id), MHz(req.vfreq_mhz), &loads) {
                Ok(generation) => ok_json(200, &IdResp { id, generation }),
                Err(e) => admission_err(&e),
            }
        }
        ("GET", ["vms", id]) => {
            let Ok(id) = id.parse::<u64>() else {
                return error(400, "vm id must be an integer");
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
                None => error(404, &format!("no such vm spec-{id}")),
            }
        }
        ("GET", ["tenants", name, "bill"]) => match (&rt.billing, rt.plane.quota(name)) {
            (Some(engine), Some(_)) => {
                let audit = rt.plane.store().audit(name);
                Response::json(200, engine.invoice(name, audit).render_json())
            }
            (None, _) => error(404, "billing is not enabled"),
            (_, None) => error(404, &format!("unknown tenant {name:?}")),
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
                (None, _) => error(404, "billing is not enabled"),
                (_, None) => error(404, &format!("unknown tenant {name:?}")),
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
            None => error(404, &format!("unknown tenant {name:?}")),
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
            Response::prometheus(page)
        }
        _ => error(404, &format!("no route {method} {path}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::TenantQuota;
    use crate::reconcile::ReconcilerConfig;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;
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
            limits: Limits {
                read_timeout: Duration::from_millis(200),
                max_body_bytes: 1024,
                ..Limits::default()
            },
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
    fn a_full_queue_sheds_while_the_runtime_lock_is_held() {
        let rt = runtime();
        let cfg = ApiServerConfig {
            limits: Limits {
                workers: 1,
                queue_depth: 1,
                ..Limits::default()
            },
            ..ApiServerConfig::default()
        };
        let server = ApiServer::bind_with("127.0.0.1:0", Arc::clone(&rt), cfg).unwrap();
        let addr = server.local_addr();
        let send = |request: &[u8]| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(request).unwrap();
            stream
        };
        let read = |mut stream: TcpStream| {
            let mut response = String::new();
            stream.read_to_string(&mut response).map(|_| response)
        };
        let health = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";

        let held = rt.lock().unwrap();
        // A: the one worker takes it and blocks in the router on the held
        // lock. Nothing in the server shows that hand-off, so give the
        // worker ample time to wake before B arrives; had it not, B would
        // be the connection refused and the count below would read 2.
        let a = send(health);
        std::thread::sleep(Duration::from_millis(100));
        // B fills the queue.
        let b = send(health);
        // C finds it full: 503 + Retry-After at once, lock or no lock.
        let c = send(health);
        c.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let response = read(c).expect("the refusal must not wait on the runtime lock");
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("Retry-After: 1"), "{response}");
        assert_eq!(held.plane.metrics.sheds(ShedReason::QueueFull), 1);
        drop(held);

        for stream in [a, b] {
            let response = read(stream).unwrap();
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        }
        assert_eq!(
            rt.lock()
                .unwrap()
                .plane
                .metrics
                .sheds(ShedReason::QueueFull),
            1
        );
        let (status, body) = http(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);
        assert!(
            body.contains("vfc_cp_shed_total{reason=\"queue_full\"} 1"),
            "{body}"
        );
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
