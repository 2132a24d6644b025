//! `api_mixed` and `api_read`: the control plane over its own HTTP API.
//!
//! One client thread in a closed loop, one connection per request (the
//! server has no keep-alive). The spec log is persisted on every accepted
//! write and the billing ledger on every step, both in a fresh directory
//! under the benchmark's scratch space.
//!
//! `api_mixed` measures writes beside reads on the same stores: each
//! period the client sends the generator's ten requests, then calls
//! `step()` itself, then asks `GET /vms/{id}` for every create still
//! waiting to converge. `api_read` plays such periods in its set-up and
//! measures reads alone — mostly `GET /tenants/{id}/bill`, which replays
//! the ledger and the spec log those periods left — with no write and no
//! step between them.

use super::api_gen::{Model, Op, Planned, Quota, CLASSES};
use super::Demand;
use crate::common::{prom_sum, us, Cfg, Checks, Digest, Rep};
use crate::spans::Tracer;
use crate::stats;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vfc::billing::{BillingEngine, PricingConfig, SlaClass};
use vfc::cluster::{ClusterManager, GlobalVmId, Strategy};
use vfc::controlplane::{
    aggregate_usage, spec_audit, ApiServer, ControlPlane, ControlPlaneRuntime, RateLimit,
    Reconciler, ReconcilerConfig, SpecId, SpecStore, TenantQuota,
};
use vfc::cpusched::topology::NodeSpec;
use vfc::simcore::{MHz, SplitMix64};
use vfc::vmm::VmTemplate;

const NODES: usize = 64;
const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];
const FMAX: u32 = 2400;

fn node_spec() -> NodeSpec {
    NodeSpec::custom("cp", 1, 4, 2, MHz(FMAX))
}

/// Each tenant may hold a quarter of the fleet's Eq. 7 budget.
fn quota() -> Quota {
    let fleet = NODES as u64 * node_spec().freq_capacity_mhz();
    Quota {
        max_vms: 400,
        max_vcpus: 1_200,
        max_mhz: fleet / TENANTS.len() as u64,
    }
}

/// Periods of `api_mixed`'s measured loop.
fn mixed_periods(cfg: &Cfg) -> usize {
    cfg.size(200, 20)
}

/// Periods `api_read` plays in its set-up: the ledger and spec log its
/// reads replay are this long.
fn read_warm_periods(cfg: &Cfg) -> usize {
    cfg.size(200, 10)
}

/// Rounds of ten reads in `api_read`'s measured loop.
fn read_rounds(cfg: &Cfg) -> usize {
    cfg.size(400, 15)
}

/// What the plan leaves live at the end: `(id, tenant, vcpus, vfreq)`.
type LiveSet = Vec<(u64, usize, u32, u32)>;

/// Every request of a run — `periods` periods of the mix, then `rounds`
/// rounds of reads; the only input the program receives — and the VMs
/// those requests leave behind.
///
/// # Panics
/// If the token-bucket mirror had to turn a mutation away: the mix is
/// sized so that never happens, and a plan with fewer writes than the mix
/// says is another workload.
fn plan(
    cfg: &Cfg,
    periods: usize,
    rounds: usize,
) -> (Vec<Vec<Planned>>, Vec<Vec<Planned>>, LiveSet) {
    let rate = RateLimit::default();
    let mut model = Model::new(
        cfg.seed,
        TENANTS.len(),
        quota(),
        (rate.burst, rate.per_tick),
        vec![node_spec().freq_capacity_mhz(); NODES],
    );
    let planned = (0..periods).map(|_| model.next_period()).collect();
    assert_eq!(
        model.starved(),
        0,
        "request mix outruns the default rate limit"
    );
    let reads = (0..rounds).map(|_| model.next_reads()).collect();
    (planned, reads, model.live())
}

/// Scratch directory of one runtime; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(cfg: &Cfg, tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = cfg
            .tmp
            .join(format!("api-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TempDir(dir)
    }

    fn spec_log(&self) -> PathBuf {
        self.0.join("specs.json")
    }

    fn ledger(&self) -> PathBuf {
        self.0.join("ledger.jsonl")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn pricing() -> PricingConfig {
    PricingConfig::linear(1_000, FMAX)
}

/// The control plane under test: 64 nodes under Eq. 7, four tenants (two
/// guaranteed, two burstable), a ledger-backed billing engine, and — when
/// `persist` — a spec log on disk.
fn runtime(cfg: &Cfg, dir: &TempDir, persist: bool) -> ControlPlaneRuntime {
    let mut plane = if persist {
        ControlPlane::with_persistence(dir.spec_log()).expect("fresh spec log")
    } else {
        ControlPlane::new()
    };
    let q = quota();
    for (i, tenant) in TENANTS.iter().enumerate() {
        let sla = if i % 2 == 0 {
            SlaClass::default()
        } else {
            SlaClass::Burstable {
                base_discount_pct: 30,
                spot_multiplier_pct: 150,
            }
        };
        plane.add_tenant_with_sla(
            tenant,
            TenantQuota {
                max_vms: q.max_vms,
                max_vcpus: q.max_vcpus,
                max_mhz: q.max_mhz,
            },
            sla,
        );
    }
    let cluster = ClusterManager::new(
        vec![node_spec(); NODES],
        Strategy::FrequencyControl,
        cfg.seed,
    );
    let mut rng = SplitMix64::new(cfg.seed ^ 0xC1A5);
    let reconciler = Reconciler::with_workloads(
        ReconcilerConfig::default(),
        Box::new(move |spec| {
            let name = &spec.template.name;
            let class = CLASSES.iter().position(|c| name.starts_with(c));
            match class {
                Some(0) => Demand::BurstyWeb,
                Some(1) => Demand::Steady80,
                _ => Demand::Saturating,
            }
            .workload(&mut rng)
        }),
    );
    let mut rt = ControlPlaneRuntime::new(plane, cluster, reconciler);
    rt.attach_billing(BillingEngine::with_ledger(pricing(), dir.ledger()).expect("fresh ledger"));
    rt
}

/// One request, one connection: `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: vfc\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// Method, path, body and span name of a planned request.
fn wire(op: &Op) -> (&'static str, String, String, &'static str) {
    match op {
        Op::Create {
            tenant,
            name,
            vcpus,
            vfreq,
        } => (
            "POST",
            "/vms".into(),
            format!(
                r#"{{"tenant":"{}","name":"{name}","vcpus":{vcpus},"vfreq_mhz":{vfreq},"mem_gb":1}}"#,
                TENANTS[*tenant]
            ),
            "http.POST /vms",
        ),
        Op::Resize { id, vfreq } => (
            "PUT",
            format!("/vms/{id}/vfreq"),
            format!(r#"{{"vfreq_mhz":{vfreq}}}"#),
            "http.PUT /vms/{id}/vfreq",
        ),
        Op::Delete { id } => (
            "DELETE",
            format!("/vms/{id}"),
            String::new(),
            "http.DELETE /vms/{id}",
        ),
        Op::Bill { tenant } => (
            "GET",
            format!("/tenants/{}/bill", TENANTS[*tenant]),
            String::new(),
            "http.GET /tenants/{id}/bill",
        ),
        Op::Metrics => ("GET", "/metrics".into(), String::new(), "http.GET /metrics"),
        Op::GetVm { id } => (
            "GET",
            format!("/vms/{id}"),
            String::new(),
            "http.GET /vms/{id}",
        ),
        Op::Health => ("GET", "/healthz".into(), String::new(), "http.GET /healthz"),
    }
}

/// One member of a JSON object reply.
fn json_field(body: &str, key: &str) -> Option<serde_json::Value> {
    serde_json::from_str::<serde_json::Value>(body)
        .ok()?
        .get(key)
        .cloned()
}

/// A create waiting for the reconciler: when it converges, its
/// create-to-cap time is the POST round trip plus every `step()` since.
struct PendingCreate {
    id: u64,
    waited: Duration,
    steps: u32,
}

/// Latency samples of one rep, µs, arrival order.
#[derive(Default)]
struct Samples {
    write: Vec<f64>,
    bill: Vec<f64>,
    metrics: Vec<f64>,
    vm_get: Vec<f64>,
    step: Vec<f64>,
    create_to_cap: Vec<f64>,
    create_steps: Vec<f64>,
    metrics_page_bytes: usize,
}

fn p50(samples: &[f64]) -> f64 {
    stats::median(samples)
}

fn is_write(op: &Op) -> bool {
    matches!(
        op,
        Op::Create { .. } | Op::Resize { .. } | Op::Delete { .. }
    )
}

fn is_bill(op: &Op) -> bool {
    matches!(op, Op::Bill { .. })
}

/// Per-tenant invoices of a runtime, as served.
fn invoices(rt: &ControlPlaneRuntime) -> Vec<String> {
    let engine = rt.billing.as_ref().expect("billing attached");
    TENANTS
        .iter()
        .map(|t| {
            engine
                .invoice(t, spec_audit(rt.plane.store().log(), t))
                .render_json()
        })
        .collect()
}

/// A listening control plane and the requests it is about to receive.
pub struct Served {
    planned: Vec<Vec<Planned>>,
    /// `api_read`: the measured rounds of reads.
    reads: Vec<Vec<Planned>>,
    want: LiveSet,
    dir: TempDir,
    shared: Arc<Mutex<ControlPlaneRuntime>>,
    addr: SocketAddr,
    /// `api_read`: what playing `planned` in the set-up checked.
    checks: Checks,
}

impl Drop for Served {
    /// The server's threads hold the runtime until the process exits; swap
    /// the big state out so reps and set-ups do not pile up in memory.
    fn drop(&mut self) {
        let husk = ControlPlaneRuntime::new(
            ControlPlane::new(),
            ClusterManager::new(
                vec![NodeSpec::custom("husk", 1, 1, 1, MHz(1000))],
                Strategy::FrequencyControl,
                0,
            ),
            Reconciler::new(ReconcilerConfig::default()),
        );
        if let Ok(mut rt) = self.shared.lock() {
            drop(std::mem::replace(&mut *rt, husk));
        }
    }
}

/// Plan the requests from the seed, build the runtime in a fresh
/// directory, bind the API on a free loopback port.
fn serve(cfg: &Cfg, periods: usize, rounds: usize) -> Served {
    let (planned, reads, want) = plan(cfg, periods, rounds);
    let dir = TempDir::new(cfg, "live");
    let shared = Arc::new(Mutex::new(runtime(cfg, &dir, true)));
    let server = ApiServer::bind("127.0.0.1:0", Arc::clone(&shared)).expect("bind api");
    Served {
        planned,
        reads,
        want,
        dir,
        addr: server.local_addr(),
        shared,
        checks: Checks::default(),
    }
}

/// Set-up of `api_mixed`: a listening, empty control plane.
pub fn setup(cfg: &Cfg) -> Served {
    serve(cfg, mixed_periods(cfg), 0)
}

/// Set-up of `api_read`: a control plane that has lived through
/// `read_warm_periods` periods of the mixed traffic.
pub fn read_setup(cfg: &Cfg) -> Served {
    let mut served = serve(cfg, read_warm_periods(cfg), read_rounds(cfg));
    let mut tracer = Tracer::new(false);
    let mut client = Client::new(&served, is_write);
    for (period, ops) in served.planned.iter().enumerate() {
        client.send(period, ops, &mut tracer);
        client.step(period, &mut tracer);
    }
    served.checks = client.checks;
    served
}

/// The one client of a rep: what it has sent, what it is waiting for, and
/// every reply checked against the plan.
struct Client<'a> {
    served: &'a Served,
    /// Which requests are the workload's primary operation.
    primary: fn(&Op) -> bool,
    /// Round trips of primary operations not yet handed to the `Rep`.
    primary_done: Vec<Duration>,
    /// What every bill must read, by tenant, while nothing changes the
    /// ledger (`api_read`'s measured loop).
    frozen_bills: Option<Vec<String>>,
    s: Samples,
    pending: Vec<PendingCreate>,
    requests: u64,
    checks: Checks,
}

impl<'a> Client<'a> {
    fn new(served: &'a Served, primary: fn(&Op) -> bool) -> Self {
        Client {
            served,
            primary,
            primary_done: Vec::new(),
            frozen_bills: None,
            s: Samples::default(),
            pending: Vec::new(),
            requests: 0,
            checks: Checks::default(),
        }
    }

    /// Send `ops` one after another; every reply must carry the planned
    /// status (408/413/429/503 would be shedding: never expected here).
    fn send(&mut self, period: usize, ops: &[Planned], tracer: &mut Tracer) {
        for p in ops {
            let (method, path, body, span) = wire(&p.op);
            let t0 = Instant::now();
            let reply = http(self.served.addr, method, &path, &body);
            let t1 = Instant::now();
            self.requests += 1;
            tracer.record(span, t0, t1, None, self.requests);
            let (status, reply_body) = reply.unwrap_or_else(|e| (0, e.to_string()));
            self.checks.check(status == p.status, || {
                format!(
                    "period {period}: {method} {path} answered {status}, expected {}: {reply_body}",
                    p.status
                )
            });
            if (self.primary)(&p.op) {
                self.primary_done.push(t1 - t0);
            }
            let elapsed = us(t1 - t0);
            match &p.op {
                Op::Create { .. } => {
                    self.s.write.push(elapsed);
                    let id = match json_field(&reply_body, "id") {
                        Some(serde_json::Value::UInt(id)) => Some(id),
                        _ => None,
                    };
                    self.checks.check(id == p.new_id, || {
                        format!("create answered id {id:?}, plan says {:?}", p.new_id)
                    });
                    if let Some(id) = id {
                        self.pending.push(PendingCreate {
                            id,
                            waited: t1 - t0,
                            steps: 0,
                        });
                    }
                }
                Op::Resize { .. } | Op::Delete { .. } => self.s.write.push(elapsed),
                Op::Bill { tenant } => {
                    self.s.bill.push(elapsed);
                    if let Some(bills) = &self.frozen_bills {
                        self.checks.check(reply_body == bills[*tenant], || {
                            format!("{path} differs from the invoice of the unchanged ledger")
                        });
                    }
                }
                Op::Metrics => {
                    self.s.metrics.push(elapsed);
                    self.s.metrics_page_bytes = reply_body.len();
                }
                Op::GetVm { .. } | Op::Health => self.s.vm_get.push(elapsed),
            }
        }
    }

    /// `step()`, called by the client thread itself, then one
    /// `GET /vms/{id}` per create the reconciler has not landed yet.
    fn step(&mut self, period: usize, tracer: &mut Tracer) {
        let t0 = Instant::now();
        let summary = self.served.shared.lock().expect("runtime lock").step();
        let t1 = Instant::now();
        tracer.record("controlplane.step", t0, t1, None, period as u64);
        self.s.step.push(us(t1 - t0));
        self.checks.check(summary.failed == 0, || {
            format!(
                "period {period}: reconcile reported {} failed actions",
                summary.failed
            )
        });

        let mut still = Vec::new();
        for mut c in std::mem::take(&mut self.pending) {
            c.waited += t1 - t0;
            c.steps += 1;
            let t0 = Instant::now();
            let reply = http(self.served.addr, "GET", &format!("/vms/{}", c.id), "");
            let t1 = Instant::now();
            self.requests += 1;
            tracer.record("http.GET /vms/{id}", t0, t1, None, self.requests);
            self.s.vm_get.push(us(t1 - t0));
            match reply {
                Ok((200, body))
                    if json_field(&body, "converged") == Some(serde_json::Value::Bool(true)) =>
                {
                    self.s.create_to_cap.push(c.waited.as_secs_f64() * 1e3);
                    self.s.create_steps.push(f64::from(c.steps));
                    self.checks.pass(1);
                }
                // Deleted again before it converged: nothing to wait for.
                Ok((404, _)) => self.checks.pass(1),
                Ok((200, _)) if c.steps < 8 => still.push(c),
                other => self.checks.check(false, || {
                    format!("vm {} never converged ({} steps): {other:?}", c.id, c.steps)
                }),
            }
        }
        self.pending = still;
    }

    /// Close the chunk that took `wall`, its primary operations in it.
    fn close_chunk(&mut self, rep: &mut Rep, wall: Duration) {
        for d in self.primary_done.drain(..) {
            rep.op(d);
        }
        rep.close_chunk(wall);
    }

    /// Hand the samples, the request count and the checks to `rep`, with
    /// the layer metrics the round trips give.
    fn finish(self, rep: &mut Rep, shed: f64) {
        let s = self.s;
        rep.finish();
        rep.work = self.requests;
        rep.checks.absorb(self.checks);
        let l = &mut rep.layers;
        l.insert("controlplane.write_p50_us", p50(&s.write));
        l.insert("controlplane.write_p99_us", stats::tail(&s.write));
        l.insert("controlplane.write_growth", stats::growth(&s.write));
        l.insert("controlplane.bill_p50_us", p50(&s.bill));
        l.insert("controlplane.step_p50_ms", p50(&s.step) / 1e3);
        l.insert("controlplane.create_to_cap_p50_ms", p50(&s.create_to_cap));
        l.insert(
            "controlplane.create_to_cap_periods",
            stats::mean(&s.create_steps),
        );
        l.insert("controlplane.vm_get_p50_us", p50(&s.vm_get));
        l.insert("controlplane.metrics_p50_us", p50(&s.metrics));
        l.insert("controlplane.shed_total", shed);
        l.insert("telemetry.page_bytes", s.metrics_page_bytes as f64);
    }
}

/// The output checks both workloads end with: nothing was shed, no
/// checkpoint failed, Eq. 7 holds, the store is what the plan says, and
/// both durable files reload to the live state. Sets the digest and the
/// ledger-size layers; returns the live invoices and the shed count.
fn verify(served: &Served, rep: &mut Rep) -> (Vec<String>, f64) {
    let Served {
        want, dir, shared, ..
    } = served;
    let (_, page) = http(served.addr, "GET", "/metrics", "").unwrap_or_default();
    let shed = prom_sum(&page, "vfc_cp_shed_total");
    rep.checks
        .check(shed == 0.0, || format!("{shed} requests were shed"));
    let failed_checkpoints = prom_sum(&page, "vfc_cp_billing_checkpoint_failures_total");
    rep.checks.check(failed_checkpoints == 0.0, || {
        format!("{failed_checkpoints} ledger checkpoints failed")
    });

    let rt = shared.lock().expect("runtime lock");
    let over = rt.cluster.eq7_violations();
    rep.checks.check(over == 0, || {
        format!("{over} nodes over their Eq. 7 budget")
    });

    // The store holds exactly what the plan says is live.
    let have: LiveSet = rt
        .plane
        .store()
        .specs()
        .map(|sp| {
            (
                sp.id.0,
                TENANTS
                    .iter()
                    .position(|t| *t == sp.tenant)
                    .unwrap_or(usize::MAX),
                sp.template.vcpus,
                sp.template.vfreq.as_u32(),
            )
        })
        .collect();
    rep.checks.check(have == *want, || {
        format!("store holds {} specs, plan says {}", have.len(), want.len())
    });

    // Reloading both durable files reproduces store and invoices.
    let live_invoices = invoices(&rt);
    let reloaded = SpecStore::load(&dir.spec_log());
    rep.checks.check(
        reloaded.as_ref().is_ok_and(|st| {
            st.seq() == rt.plane.store().seq() && st.specs().eq(rt.plane.store().specs())
        }),
        || {
            format!(
                "spec log does not reload to the live store: {:?}",
                reloaded.as_ref().err()
            )
        },
    );
    match BillingEngine::with_ledger(pricing(), dir.ledger()) {
        Ok(mut engine) => {
            for (t, class) in rt.plane.slas() {
                engine.set_class(t, class.clone());
            }
            for (t, live) in TENANTS.iter().zip(&live_invoices) {
                let again = engine
                    .invoice(t, spec_audit(rt.plane.store().log(), t))
                    .render_json();
                rep.checks.check(&again == live, || {
                    format!("tenant {t}: invoice from the reloaded ledger differs")
                });
            }
        }
        Err(e) => rep
            .checks
            .check(false, || format!("ledger does not reload: {e}")),
    }

    let mut digest = Digest::default();
    for inv in &live_invoices {
        digest.str(inv);
    }
    digest.u64(rt.plane.store().seq());
    rep.digest = digest.hex();

    let engine = rt.billing.as_ref().expect("billing attached");
    rep.layers
        .insert("billing.ledger_records", engine.ledger().len() as f64);
    rep.layers.insert(
        "billing.ledger_bytes",
        std::fs::metadata(dir.ledger()).map_or(0.0, |m| m.len() as f64),
    );
    (live_invoices, shed)
}

/// The closed loop of `api_mixed`. A traced rep also replays the same
/// requests on an in-process twin (see [`twin`]) and merges its layer
/// metrics.
pub fn run(served: Served, cfg: &Cfg, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let mut client = Client::new(&served, is_write);
    for (period, ops) in served.planned.iter().enumerate() {
        // Two chunks per period: the planned requests, then the step and
        // the convergence reads.
        let started = Instant::now();
        client.send(period, ops, tracer);
        client.close_chunk(&mut rep, started.elapsed());
        let started = Instant::now();
        client.step(period, tracer);
        client.close_chunk(&mut rep, started.elapsed());
    }
    let (live_invoices, shed) = verify(&served, &mut rep);
    client.finish(&mut rep, shed);

    if tracer.enabled() {
        let twin_invoices = twin(cfg, &served.planned, tracer, &mut rep);
        // Same requests, same bills — or the twin measured something else.
        rep.checks.check(twin_invoices == live_invoices, || {
            "in-process twin produced other invoices than the served run".to_owned()
        });
        let overhead = rep.layers["controlplane.write_p50_us"]
            - rep.layers["controlplane.admit_us"]
            - rep.layers["controlplane.spec_save_us"];
        rep.layers.insert("controlplane.http_overhead_us", overhead);
    }
    rep
}

/// The closed loop of `api_read`: rounds of ten reads on the state the
/// set-up left, one chunk a round. A traced rep also times the invoice and
/// the metrics page as direct calls on the same runtime, which splits a
/// bill's round trip into the HTTP path and the replay.
pub fn read_run(mut served: Served, cfg: &Cfg, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep {
        checks: std::mem::take(&mut served.checks),
        ..Rep::default()
    };
    let mut client = Client::new(&served, is_bill);
    client.frozen_bills = Some(invoices(&served.shared.lock().expect("runtime lock")));
    for (round, ops) in served.reads.iter().enumerate() {
        let started = Instant::now();
        client.send(round, ops, tracer);
        client.close_chunk(&mut rep, started.elapsed());
    }
    let (_, shed) = verify(&served, &mut rep);
    client.finish(&mut rep, shed);

    if tracer.enabled() {
        let rt = served.shared.lock().expect("runtime lock");
        let engine = rt.billing.as_ref().expect("billing attached");
        let calls = cfg.size(200, 20);
        let mut invoice = Duration::ZERO;
        let mut render = Duration::ZERO;
        for call in 0..calls {
            let tenant = TENANTS[call % TENANTS.len()];
            let t0 = Instant::now();
            let audit = spec_audit(rt.plane.store().log(), tenant);
            std::hint::black_box(engine.invoice(tenant, audit).render_json());
            let t1 = Instant::now();
            let mut page = rt.plane.metrics.render();
            page.push_str(&engine.render_telemetry());
            std::hint::black_box(page);
            let t2 = Instant::now();
            tracer.record("billing.invoice", t0, t1, None, call as u64);
            tracer.record("telemetry.render", t1, t2, None, call as u64);
            invoice += t1 - t0;
            render += t2 - t1;
        }
        let invoice_us = us(invoice) / calls as f64;
        let l = &mut rep.layers;
        l.insert("billing.invoice_us", invoice_us);
        l.insert("telemetry.render_us", us(render) / calls as f64);
        let overhead = l["controlplane.bill_p50_us"] - invoice_us;
        l.insert("controlplane.http_overhead_us", overhead);
    }
    rep
}

/// The same requests applied by direct calls to an identical runtime with
/// no spec-log persistence, one span per layer call. This is where the
/// cost of a served request is split into admission, spec-log save and
/// the HTTP path, and where `step()` is split into reconcile, the
/// cluster's period, metering and the ledger checkpoint. Returns the
/// twin's invoices.
fn twin(cfg: &Cfg, planned: &[Vec<Planned>], tracer: &mut Tracer, rep: &mut Rep) -> Vec<String> {
    let dir = TempDir::new(cfg, "twin");
    let mut rt = runtime(cfg, &dir, false);
    let save_path = dir.0.join("probe-specs.json");
    let mut t = BTreeMap::<&'static str, Vec<f64>>::new();
    let mut sample =
        |name: &'static str, tracer: &mut Tracer, t0: Instant, parent: Option<u32>, id: u64| {
            let t1 = Instant::now();
            tracer.record(name, t0, t1, parent, id);
            t.entry(name).or_default().push(us(t1 - t0));
        };
    let mut render_bytes = 0usize;
    let mut call = 0u64;
    for (period, ops) in planned.iter().enumerate() {
        for p in ops {
            call += 1;
            match &p.op {
                Op::Create {
                    tenant,
                    name,
                    vcpus,
                    vfreq,
                } => {
                    let template = VmTemplate::new(name, *vcpus, MHz(*vfreq)).with_mem_gb(1);
                    let t0 = Instant::now();
                    let loads = rt.cluster.node_loads();
                    let r = rt.plane.create_vm(TENANTS[*tenant], template, &loads);
                    sample("controlplane.admit", tracer, t0, None, call);
                    rep.checks.check(r.map(|id| id.0).ok() == p.new_id, || {
                        "twin: create was not admitted as planned".to_owned()
                    });
                }
                Op::Resize { id, vfreq } => {
                    let t0 = Instant::now();
                    let loads = rt.cluster.node_loads();
                    let r = rt.plane.resize_vm(SpecId(*id), MHz(*vfreq), &loads);
                    sample("controlplane.admit", tracer, t0, None, call);
                    rep.checks
                        .check(r.is_ok(), || format!("twin: resize refused: {r:?}"));
                }
                Op::Delete { id } => {
                    let t0 = Instant::now();
                    let r = rt.plane.delete_vm(SpecId(*id));
                    sample("controlplane.admit", tracer, t0, None, call);
                    rep.checks
                        .check(r.is_ok(), || format!("twin: delete refused: {r:?}"));
                }
                Op::Bill { tenant } => {
                    let name = TENANTS[*tenant];
                    let t0 = Instant::now();
                    let audit = spec_audit(rt.plane.store().log(), name);
                    let body = rt
                        .billing
                        .as_ref()
                        .expect("billing attached")
                        .invoice(name, audit)
                        .render_json();
                    sample("billing.invoice", tracer, t0, None, call);
                    std::hint::black_box(body);
                }
                Op::Metrics => {
                    let t0 = Instant::now();
                    let mut page = rt.plane.metrics.render();
                    page.push_str(
                        &rt.billing
                            .as_ref()
                            .expect("billing attached")
                            .render_telemetry(),
                    );
                    sample("telemetry.render", tracer, t0, None, call);
                    render_bytes = page.len();
                }
                Op::GetVm { .. } | Op::Health => {}
            }
        }

        // step(), one layer call at a time (same order as the runtime's).
        let id = period as u64;
        let step = tracer.open("twin.step", Instant::now(), id);
        let t0 = Instant::now();
        rt.reconciler.reconcile(&mut rt.plane, &mut rt.cluster);
        sample("controlplane.reconcile", tracer, t0, step, id);
        let t0 = Instant::now();
        rt.cluster.run_period();
        sample("cluster.run_period", tracer, t0, step, id);
        let t0 = Instant::now();
        let mut owner: BTreeMap<GlobalVmId, String> = BTreeMap::new();
        for spec in rt.plane.store().specs() {
            if let Some(b) = rt.reconciler.binding(spec.id) {
                owner.insert(b.vm, spec.tenant.clone());
            }
        }
        let engine = rt.billing.as_mut().expect("billing attached");
        for usage in rt.cluster.drain_usage() {
            let rows = aggregate_usage(&usage, |vm| owner.get(&vm).cloned());
            engine.meter_period(usage.period, rows);
        }
        sample("billing.meter", tracer, t0, step, id);
        let t0 = Instant::now();
        let saved = engine.checkpoint();
        sample("billing.checkpoint", tracer, t0, step, id);
        rep.checks.check(saved.is_ok(), || {
            format!("twin: checkpoint failed: {saved:?}")
        });
        tracer.close(step, Instant::now());

        if period == planned.len() / 2 {
            for _ in 0..10 {
                let t0 = Instant::now();
                let r = rt.plane.store().save(&save_path);
                sample("controlplane.spec_save", tracer, t0, None, id);
                rep.checks
                    .check(r.is_ok(), || format!("twin: spec save failed: {r:?}"));
            }
        }
    }

    let mean = |name: &str| t.get(name).map_or(0.0, |v| stats::mean(v));
    let l = &mut rep.layers;
    l.insert("controlplane.admit_us", mean("controlplane.admit"));
    l.insert("controlplane.spec_save_us", mean("controlplane.spec_save"));
    l.insert("controlplane.reconcile_us", mean("controlplane.reconcile"));
    l.insert("cluster.run_period_ms", mean("cluster.run_period") / 1e3);
    l.insert("billing.meter_us", mean("billing.meter"));
    l.insert("billing.checkpoint_ms", mean("billing.checkpoint") / 1e3);
    l.insert(
        "billing.checkpoint_growth",
        t.get("billing.checkpoint")
            .map_or(1.0, |v| stats::growth(v)),
    );
    l.insert("billing.invoice_us", mean("billing.invoice"));
    l.insert("telemetry.render_us", mean("telemetry.render"));
    std::hint::black_box(render_bytes);
    let out = invoices(&rt);
    drop(rt);
    out
}
