//! Quick probes of where a controller iteration's time goes.
//!
//! * chetemi, 80 × 2-vCPU VMs (the `node_sim` population): the
//!   externally timed iteration beside the controller's own
//!   `timings.total` and its six stages. What no `StageTimings` field
//!   names — laying out tables, QoS floors, metric recording, report
//!   fill inside `total`; the telemetry epilogue and trace push outside
//!   it — is `total − Σ stages` and `outer − total`.
//! * 1000 vCPUs: the best iteration of 40 and its stage breakdown.
use std::time::{Duration, Instant};
use vfc_bench::{dense_host, mixed_host, warm_up};
use vfc_controller::controller::IterationReport;
use vfc_controller::{ControlMode, Controller, ControllerConfig};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn node_sim_row() {
    let mut host = mixed_host();
    let mut ctl = Controller::new(ControllerConfig::paper_defaults(), host.topology_info());
    warm_up(&mut host, &mut ctl, 20);
    let mut report = IterationReport::default();
    let mut cols: [Vec<f64>; 8] = Default::default();
    for _ in 0..2_000 {
        host.advance_period();
        let t = Instant::now();
        ctl.iterate_into(&mut host, &mut report).unwrap();
        let outer = t.elapsed();
        let s = &report.timings;
        for (col, d) in cols.iter_mut().zip(s.stages()) {
            col.push(us(d));
        }
        cols[6].push(us(s.total));
        cols[7].push(us(outer));
    }
    let [mon, est, enf, auc, dis, app, total, outer] = cols.map(median);
    let staged = mon + est + enf + auc + dis + app;
    println!(
        "chetemi 80x2 (median of 2000, us): outer {outer:.1} | total {total:.1} | mon {mon:.1} \
         est {est:.1} enforce {enf:.1} auction {auc:.1} dist {dis:.1} apply {app:.1} | \
         unstaged in total {:.1} | epilogue {:.1}",
        total - staged,
        outer - total
    );
}

fn main() {
    node_sim_row();
    let (mut host, mut ctl) = dense_host(1000, ControlMode::Full);
    warm_up(&mut host, &mut ctl, 5);
    let mut report = IterationReport::default();
    let mut best = u128::MAX;
    for _ in 0..40 {
        host.advance_period();
        let t = Instant::now();
        ctl.iterate_into(&mut host, &mut report).unwrap();
        best = best.min(t.elapsed().as_micros());
    }
    let t = &report.timings;
    println!(
        "dense 1000: best-total {best}us | mon {:?} est {:?} enforce {:?} auction {:?} dist {:?} apply {:?} total {:?}",
        t.monitor, t.estimate, t.enforce, t.auction, t.distribute, t.apply, t.total
    );
}
