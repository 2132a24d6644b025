//! The paper's two contributions, composed: VMs packed by the
//! frequency-aware placer onto one node are then *actually controllable* —
//! the controller delivers every placed VM its guaranteed frequency.
//! This is the contract §III.C relies on ("supported by the frequency
//! controller, instead of migration mechanism").

use vfc::controller::ControlMode;
use vfc::placement::cluster::{paper_workload, ArrivalOrder, Cluster};
use vfc::prelude::*;

#[test]
fn frequency_placed_node_is_controllable() {
    // Place the paper workload with Eq. 7, pick the most loaded node, and
    // realize it on a SimHost.
    let cluster = Cluster::paper_cluster();
    let workload = paper_workload(ArrivalOrder::RoundRobin);
    let placer = Placer::new(PlacementAlgorithm::BestFit, ConstraintMode::Frequency);
    let result = placer.place(&cluster.nodes, &workload);

    let bin = result
        .nodes
        .iter()
        .filter(|n| n.is_used())
        .max_by(|a, b| {
            a.freq_utilization()
                .partial_cmp(&b.freq_utilization())
                .expect("utilizations are finite")
        })
        .expect("at least one node is used");
    assert!(
        bin.freq_utilization() > 0.9,
        "Best-Fit should pack tightly, got {}",
        bin.freq_utilization()
    );

    // Realize the bin.
    let mut host = SimHost::fixed_freq(bin.spec.clone(), 3);
    let mut placed = Vec::new();
    for req in &bin.placed {
        let vm = host.provision(&VmTemplate::new(&req.template, req.vcpus, req.vfreq));
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        placed.push((vm, req.vfreq));
    }

    let mut ctl = Controller::new(
        ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
        host.topology_info(),
    );
    for _ in 0..25 {
        host.advance_period();
        ctl.iterate(&mut host).expect("sim backend");
    }

    // Every placed VM gets its guarantee: the placement promise holds
    // without migrations.
    for (vm, vfreq) in &placed {
        for j in 0..host.instance(*vm).nr_vcpus() {
            let f = host.vcpu_freq_exact(*vm, VcpuId::new(j));
            assert!(
                f.as_u32() + 60 >= vfreq.as_u32(),
                "{} vcpu{}: got {f}, promised {vfreq}",
                host.instance(*vm).name,
                j
            );
        }
    }
}

#[test]
fn frequency_factor_overcommit_loses_the_guarantee() {
    // §III.C's warning, demonstrated: admit 20 % more frequency demand
    // than Eq. 7 allows and even the controller cannot conjure the
    // missing cycles — guarantees degrade proportionally (the
    // over-subscription guard shares the shortfall instead of starving
    // anyone completely).
    let mut host = SimHost::fixed_freq(
        vfc::cpusched::topology::NodeSpec::custom("oc", 1, 2, 1, MHz(2400)),
        9,
    );

    // Capacity 4800 MHz; FrequencyFactor{1.2} admits up to 5760:
    // three 2-vCPU 900 MHz VMs = 5400 MHz of guarantees.
    let mode = ConstraintMode::FrequencyFactor { factor: 1.2 };
    let mut bin = vfc::placement::NodeBin::new(host.spec().clone());
    let mut vms = Vec::new();
    for _ in 0..3 {
        let req = vfc::placement::PlacementRequest::new("oc", 2, MHz(900), 2);
        assert!(mode.fits(&bin, &req));
        bin.place(&req);
        let vm = host.provision(&VmTemplate::new("oc", 2, MHz(900)));
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        vms.push(vm);
    }
    let mut ctl = Controller::new(
        ControllerConfig::paper_defaults().with_mode(ControlMode::Full),
        host.topology_info(),
    );
    for _ in 0..20 {
        host.advance_period();
        ctl.iterate(&mut host).expect("sim backend");
    }
    for vm in vms {
        let f = host.vcpu_freq_exact(vm, VcpuId::new(0));
        // Everyone gets the same degraded share: 4800/6 = 800 < 900.
        assert!(
            (750..=860).contains(&f.as_u32()),
            "guarantee should degrade to ≈800 MHz, got {f}"
        );
    }
}

#[test]
fn core_count_overcommit_node_cannot_keep_promises_without_control() {
    // Contrast: pack a node with the ×1.8 consolidation factor and run it
    // WITHOUT the controller — some class must miss the frequency its
    // vCPU count implies, which is exactly why the paper replaces the
    // factor with Eq. 7 + control.
    let mut host = SimHost::fixed_freq(vfc::cpusched::topology::NodeSpec::chiclet(), 5);

    // 28 large VMs (the paper's ×1.8 packing): 112 vCPUs on 64 threads.
    let mut vms = Vec::new();
    for _ in 0..28 {
        let vm = host.provision(&VmTemplate::large());
        host.attach_workload(vm, Box::new(SteadyDemand::full()));
        vms.push(vm);
    }
    for _ in 0..10 {
        host.advance_period();
    }
    // Uncontrolled fair sharing: each vCPU gets 64/112 of a 2.4 GHz
    // thread ≈ 1371 MHz < the 1800 MHz the template promises.
    let f = host.vcpu_freq_exact(vms[0], VcpuId::new(0));
    assert!(
        f.as_u32() < 1500,
        "over-committed node should miss the 1800 MHz promise, got {f}"
    );
}
