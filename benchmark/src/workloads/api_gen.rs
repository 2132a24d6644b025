//! Request generator for `api_mixed` and `api_read`.
//!
//! The generator carries a model of everything admission looks at — the
//! per-tenant quota, the per-tenant token bucket, and the
//! first-fit-decreasing Eq. 7 pack over node budgets — so every request it
//! emits has exactly one expected status, and it only emits mutations the
//! model admits. A reply that differs from the expectation is a failure of
//! the program (or of the model), never load noise.

use std::collections::BTreeMap;
use vfc::simcore::SplitMix64;

/// The `F_v` values tenants buy. Few on purpose: the ledger grows one
/// record per (tenant, `F_v`) per period.
pub const VFREQS: [u32; 4] = [500, 900, 1200, 1800];
/// vCPU counts on offer.
const VCPUS: [u32; 3] = [1, 2, 4];
/// Workload-class prefixes; the reconciler's workload factory keys on them.
pub const CLASSES: [&str; 3] = ["web", "app", "batch"];

/// Share of the fleet's Eq. 7 budget the generator fills and then holds.
const TARGET_OCCUPANCY: f64 = 0.70;

/// One API request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Create {
        tenant: usize,
        name: String,
        vcpus: u32,
        vfreq: u32,
    },
    Resize {
        id: u64,
        vfreq: u32,
    },
    Delete {
        id: u64,
    },
    Bill {
        tenant: usize,
    },
    Metrics,
    GetVm {
        id: u64,
    },
    Health,
}

/// A request with the one status it must be answered with and, for a
/// create, the spec id it must be assigned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    pub op: Op,
    pub status: u16,
    pub new_id: Option<u64>,
}

/// Per-tenant ceilings, as registered with the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quota {
    pub max_vms: u64,
    pub max_vcpus: u64,
    pub max_mhz: u64,
}

#[derive(Debug, Clone, Copy)]
struct Vm {
    tenant: usize,
    vcpus: u32,
    vfreq: u32,
}

impl Vm {
    fn mhz(&self) -> u64 {
        u64::from(self.vcpus) * u64::from(self.vfreq)
    }
}

/// The model. Mirrors `ControlPlane`'s admission order: token, quota,
/// capacity.
pub struct Model {
    rng: SplitMix64,
    quota: Quota,
    /// Token buckets (capacity, refill per step), one per tenant.
    tokens: Vec<u64>,
    bucket: (u64, u64),
    node_mhz: Vec<u64>,
    live: BTreeMap<u64, Vm>,
    next_id: u64,
    /// Mutations issued so far; picks the tenant round-robin so no bucket
    /// ever runs dry at six mutations per period.
    mutations: usize,
    reads: usize,
    /// Mutations turned into reads because a bucket was empty (0 at the
    /// configured mix; the harness fails the run otherwise).
    starved: u64,
}

/// The mix of one period, before adaptation: 3 creates, 2 resizes,
/// 1 delete, 2 bills, 1 metrics page, 1 VM read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Create,
    Resize,
    Delete,
    Bill,
    Metrics,
    GetVm,
}

const MIX: [Slot; 10] = [
    Slot::Create,
    Slot::Create,
    Slot::Create,
    Slot::Resize,
    Slot::Resize,
    Slot::Delete,
    Slot::Bill,
    Slot::Bill,
    Slot::Metrics,
    Slot::GetVm,
];

/// The mix of one read-only round: 7 bills, 2 VM reads, 1 metrics page.
const READ_MIX: [Slot; 10] = [
    Slot::Bill,
    Slot::Bill,
    Slot::Bill,
    Slot::Bill,
    Slot::Bill,
    Slot::Bill,
    Slot::Bill,
    Slot::GetVm,
    Slot::GetVm,
    Slot::Metrics,
];

impl Model {
    pub fn new(
        seed: u64,
        tenants: usize,
        quota: Quota,
        bucket: (u64, u64),
        node_mhz: Vec<u64>,
    ) -> Self {
        Model {
            rng: SplitMix64::new(seed ^ 0xA91_0000_0000_0005),
            quota,
            tokens: vec![bucket.0; tenants],
            bucket,
            node_mhz,
            live: BTreeMap::new(),
            next_id: 0,
            mutations: 0,
            reads: 0,
            starved: 0,
        }
    }

    fn tenants(&self) -> usize {
        self.tokens.len()
    }

    fn usage(&self, tenant: usize) -> (u64, u64, u64) {
        self.live
            .values()
            .filter(|v| v.tenant == tenant)
            .fold((0, 0, 0), |(n, c, m), v| {
                (n + 1, c + u64::from(v.vcpus), m + v.mhz())
            })
    }

    fn committed_mhz(&self) -> u64 {
        self.live.values().map(Vm::mhz).sum()
    }

    /// `check_capacity` of the admission layer: demands sorted descending,
    /// each into the first node budget that still holds it.
    fn packs(&self, demands: impl Iterator<Item = u64>) -> bool {
        let mut free = self.node_mhz.clone();
        let mut sorted: Vec<u64> = demands.collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.into_iter().all(|d| {
            free.iter_mut()
                .find(|f| **f >= d)
                .map(|slot| *slot -= d)
                .is_some()
        })
    }

    fn within_quota(&self, (vms, vcpus, mhz): (u64, u64, u64)) -> bool {
        vms <= self.quota.max_vms && vcpus <= self.quota.max_vcpus && mhz <= self.quota.max_mhz
    }

    /// Would admission accept this VM for `tenant` right now (token aside)?
    fn admits_create(&self, tenant: usize, vm: &Vm) -> bool {
        let (n, c, m) = self.usage(tenant);
        self.within_quota((n + 1, c + u64::from(vm.vcpus), m + vm.mhz()))
            && self.packs(self.live.values().map(Vm::mhz).chain([vm.mhz()]))
    }

    fn admits_resize(&self, id: u64, vfreq: u32) -> bool {
        let old = self.live[&id];
        let new = Vm { vfreq, ..old };
        let (n, c, m) = self.usage(old.tenant);
        self.within_quota((n, c, m - old.mhz() + new.mhz()))
            && self.packs(
                self.live
                    .iter()
                    .map(|(k, v)| if *k == id { new.mhz() } else { v.mhz() }),
            )
    }

    fn pick_vm_of(&mut self, tenant: usize) -> Option<u64> {
        let ids: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, v)| v.tenant == tenant)
            .map(|(id, _)| *id)
            .collect();
        (!ids.is_empty()).then(|| ids[self.rng.next_below(ids.len() as u64) as usize])
    }

    fn below_target(&self, extra_mhz: u64) -> bool {
        let capacity: u64 = self.node_mhz.iter().sum();
        (self.committed_mhz() + extra_mhz) as f64 <= capacity as f64 * TARGET_OCCUPANCY
    }

    fn plan_create(&mut self, tenant: usize) -> Option<Planned> {
        let vm = Vm {
            tenant,
            vcpus: VCPUS[self.rng.next_below(VCPUS.len() as u64) as usize],
            vfreq: VFREQS[self.rng.next_below(VFREQS.len() as u64) as usize],
        };
        if !self.below_target(vm.mhz()) || !self.admits_create(tenant, &vm) {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id, vm);
        let class = CLASSES[self.rng.next_below(CLASSES.len() as u64) as usize];
        Some(Planned {
            op: Op::Create {
                tenant,
                name: format!("{class}-{id}"),
                vcpus: vm.vcpus,
                vfreq: vm.vfreq,
            },
            status: 201,
            new_id: Some(id),
        })
    }

    fn plan_resize(&mut self, tenant: usize) -> Option<Planned> {
        let id = self.pick_vm_of(tenant)?;
        let current = self.live[&id].vfreq;
        let start = self.rng.next_below(VFREQS.len() as u64) as usize;
        let vfreq = (0..VFREQS.len())
            .map(|k| VFREQS[(start + k) % VFREQS.len()])
            .find(|f| {
                let grow = u64::from(self.live[&id].vcpus) * u64::from(f.saturating_sub(current));
                *f != current && self.below_target(grow) && self.admits_resize(id, *f)
            })?;
        self.live.get_mut(&id).expect("picked from live").vfreq = vfreq;
        Some(Planned {
            op: Op::Resize { id, vfreq },
            status: 200,
            new_id: None,
        })
    }

    fn plan_delete(&mut self, tenant: usize) -> Option<Planned> {
        let id = self.pick_vm_of(tenant)?;
        self.live.remove(&id);
        Some(Planned {
            op: Op::Delete { id },
            status: 200,
            new_id: None,
        })
    }

    fn plan_read(&mut self, slot: Slot) -> Planned {
        self.reads += 1;
        let op = match slot {
            Slot::Metrics => Op::Metrics,
            Slot::GetVm => {
                let ids: Vec<u64> = self.live.keys().copied().collect();
                if ids.is_empty() {
                    Op::Health
                } else {
                    Op::GetVm {
                        id: ids[self.rng.next_below(ids.len() as u64) as usize],
                    }
                }
            }
            _ => Op::Bill {
                tenant: self.reads % self.tenants(),
            },
        };
        Planned {
            op,
            status: 200,
            new_id: None,
        }
    }

    /// A mutation for the next tenant in turn. The asked-for kind is tried
    /// first; a create the model would refuse becomes a delete (that is
    /// what holds occupancy at the target), a resize or delete with
    /// nothing to act on becomes a create, and a tenant out of tokens
    /// reads its bill instead.
    fn plan_mutation(&mut self, slot: Slot) -> Planned {
        let tenant = self.mutations % self.tenants();
        self.mutations += 1;
        if self.tokens[tenant] == 0 {
            self.starved += 1;
            return self.plan_read(Slot::Bill);
        }
        let planned = match slot {
            Slot::Create => self
                .plan_create(tenant)
                .or_else(|| self.plan_delete(tenant)),
            Slot::Resize => self
                .plan_resize(tenant)
                .or_else(|| self.plan_create(tenant)),
            _ => self
                .plan_delete(tenant)
                .or_else(|| self.plan_create(tenant)),
        };
        match planned {
            Some(p) => {
                self.tokens[tenant] -= 1;
                p
            }
            None => self.plan_read(Slot::Bill),
        }
    }

    /// The requests of one period, in sending order, then the bucket
    /// refill the period's `step()` performs.
    pub fn next_period(&mut self) -> Vec<Planned> {
        let mut mix = MIX;
        self.rng.shuffle(&mut mix);
        let planned = mix
            .into_iter()
            .map(|slot| match slot {
                Slot::Create | Slot::Resize | Slot::Delete => self.plan_mutation(slot),
                read => self.plan_read(read),
            })
            .collect();
        for t in &mut self.tokens {
            *t = (*t + self.bucket.1).min(self.bucket.0);
        }
        planned
    }

    /// Ten reads of the state the periods so far left behind, in sending
    /// order.
    pub fn next_reads(&mut self) -> Vec<Planned> {
        let mut mix = READ_MIX;
        self.rng.shuffle(&mut mix);
        mix.into_iter().map(|slot| self.plan_read(slot)).collect()
    }

    /// Mutations the token buckets turned away so far.
    pub fn starved(&self) -> u64 {
        self.starved
    }

    /// Live VMs as `(id, tenant, vcpus, vfreq)`, id order — what the spec
    /// store must hold after the planned requests.
    pub fn live(&self) -> Vec<(u64, usize, u32, u32)> {
        self.live
            .iter()
            .map(|(id, v)| (*id, v.tenant, v.vcpus, v.vfreq))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(nodes: usize, quota: Quota) -> Model {
        Model::new(7, 4, quota, (8, 2), vec![19_200; nodes])
    }

    impl Model {
        /// Committed share of the fleet's Eq. 7 budget.
        fn occupancy(&self) -> f64 {
            self.committed_mhz() as f64 / self.node_mhz.iter().sum::<u64>().max(1) as f64
        }
    }

    fn is_write(op: &Op) -> bool {
        matches!(
            op,
            Op::Create { .. } | Op::Resize { .. } | Op::Delete { .. }
        )
    }

    const ROOMY: Quota = Quota {
        max_vms: 10_000,
        max_vcpus: 10_000,
        max_mhz: 10_000_000,
    };

    #[test]
    fn same_seed_same_requests() {
        let (mut a, mut b) = (model(8, ROOMY), model(8, ROOMY));
        for _ in 0..50 {
            assert_eq!(a.next_period(), b.next_period());
        }
        let mut c = Model::new(8, 4, ROOMY, (8, 2), vec![19_200; 8]);
        let differs = (0..50).any(|_| a.next_period() != c.next_period());
        assert!(differs, "another seed gives other requests");
    }

    #[test]
    fn every_request_expects_success_and_ids_are_sequential() {
        let mut m = model(8, ROOMY);
        let mut next = 0;
        for _ in 0..200 {
            let period = m.next_period();
            assert_eq!(period.len(), 10);
            for p in period {
                match p.op {
                    Op::Create { .. } => {
                        assert_eq!((p.status, p.new_id), (201, Some(next)));
                        next += 1;
                    }
                    _ => assert_eq!((p.status, p.new_id), (200, None)),
                }
            }
        }
        assert!(next > 100, "creates dominate until the target is reached");
    }

    #[test]
    fn occupancy_is_held_at_the_target() {
        let mut m = model(4, ROOMY);
        let mut peak: f64 = 0.0;
        for _ in 0..300 {
            m.next_period();
            peak = peak.max(m.occupancy());
        }
        assert!(peak <= TARGET_OCCUPANCY + 1e-9, "peak {peak}");
        assert!(
            m.occupancy() > TARGET_OCCUPANCY - 0.15,
            "final {}",
            m.occupancy()
        );
    }

    #[test]
    fn quota_binds_before_admission_would_refuse() {
        let tight = Quota {
            max_vms: 3,
            max_vcpus: 8,
            max_mhz: 6_000,
        };
        let mut m = model(64, tight);
        for _ in 0..100 {
            m.next_period();
            for t in 0..4 {
                let (n, c, mhz) = m.usage(t);
                assert!(
                    n <= 3 && c <= 8 && mhz <= 6_000,
                    "tenant {t}: {n} {c} {mhz}"
                );
            }
        }
    }

    #[test]
    fn token_buckets_never_run_dry_at_six_mutations_per_period() {
        let mut m = model(64, ROOMY);
        for _ in 0..500 {
            let writes = m.next_period().iter().filter(|p| is_write(&p.op)).count();
            // A mutation with nothing to act on and no room to create
            // becomes a read; none is ever turned away by a bucket.
            assert!((4..=6).contains(&writes), "{writes} writes");
            assert_eq!(m.starved(), 0);
        }
    }

    #[test]
    fn read_rounds_change_nothing_and_bill_every_tenant() {
        let mut m = model(8, ROOMY);
        for _ in 0..20 {
            m.next_period();
        }
        let live = m.live();
        let mut billed = [0usize; 4];
        for _ in 0..8 {
            for p in m.next_reads() {
                assert!(!is_write(&p.op) && p.status == 200, "{p:?}");
                match p.op {
                    Op::Bill { tenant } => billed[tenant] += 1,
                    Op::GetVm { id } => assert!(live.iter().any(|v| v.0 == id)),
                    _ => {}
                }
            }
        }
        assert_eq!(billed.iter().sum::<usize>(), 56, "7 bills a round");
        assert!(billed.iter().all(|n| *n >= 5), "every tenant: {billed:?}");
        assert_eq!(m.live(), live);
    }

    #[test]
    fn pack_mirror_is_first_fit_decreasing() {
        let m = Model::new(1, 1, ROOMY, (8, 2), vec![10, 10]);
        // 6+4 and 6+4 fit two bins of 10 under FFD...
        assert!(m.packs([4, 6, 6, 4].into_iter()));
        // ...7,7 leaves 3+3: a 4 cannot go anywhere.
        assert!(!m.packs([7, 7, 4].into_iter()));
    }
}
