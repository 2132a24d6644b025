//! Stage 4 — the cycles auction (§III.B.4, Eq. 6, Algorithm 1).
//!
//! After base capping, the *market* holds every unallocated cycle of the
//! node (Eq. 6). Those cycles are sold to the **buyers** — vCPUs whose
//! estimate exceeds their current allocation — against their VM's credit
//! wallet. Sales happen in bounded **windows**, round-robin over buyers
//! ordered by wallet balance, so a rich VM cannot drain the market in one
//! bid; the auction ends when the market is empty, every buyer is
//! satisfied, or nobody can pay (leftovers go to stage 5).
//!
//! The paper's Algorithm 1 listing is empty in the published text; this
//! implementation reconstructs it from the surrounding prose — see
//! DESIGN.md §5.4 for the reconstruction argument.

use crate::credits::{debit, Wallet};
use crate::estimate::Estimate;
use std::collections::HashMap;
use vfc_simcore::{Micros, VcpuAddr};

/// A vCPU bidding for cycles beyond its allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buyer {
    /// The bidding vCPU.
    pub addr: VcpuAddr,
    /// Cycles still wanted: `e_{i,j,t} − c_{i,j,t}`.
    pub want: Micros,
    /// Dense coordinates of the vCPU (see
    /// [`crate::monitor::VcpuObservation::slot`]); `0` where the caller
    /// keys its state by address.
    pub slot: u32,
    /// Position of the buyer's VM in the dense per-VM tables.
    pub vm_idx: u32,
    /// `!balance` of the buyer's VM when the current round began: with
    /// `addr` as tiebreak, the round's serving order.
    rank: u64,
}

/// The rank of a buyer whose purse is empty: `!0`.
const BROKE: u64 = u64::MAX;

impl Buyer {
    /// A buyer whose credits are found by address (`addr.vm`).
    pub fn new(addr: VcpuAddr, want: Micros) -> Self {
        Buyer {
            addr,
            want,
            slot: 0,
            vm_idx: 0,
            rank: 0,
        }
    }

    /// The buyer for an estimate stage 3 left `want` short, carrying the
    /// estimate's dense coordinates.
    pub fn of(e: &Estimate, want: Micros) -> Self {
        Buyer {
            slot: e.slot,
            vm_idx: e.vm_idx,
            ..Buyer::new(e.addr, want)
        }
    }
}

/// Where the auction finds a buyer's credits: the [`Wallet`] looks them
/// up by `addr.vm`, a dense per-VM table (`None` = no wallet entry)
/// indexes with `vm_idx`. Both follow the wallet's entry rule — spending
/// creates the entry, a zero one included.
pub trait Purses {
    /// Balance of the buyer's VM.
    fn balance(&self, buyer: &Buyer) -> u64;
    /// Spend up to `amount` of it; returns what was actually debited.
    fn spend(&mut self, buyer: &Buyer, amount: u64) -> u64;
}

impl Purses for Wallet {
    fn balance(&self, buyer: &Buyer) -> u64 {
        Wallet::balance(self, buyer.addr.vm)
    }
    fn spend(&mut self, buyer: &Buyer, amount: u64) -> u64 {
        Wallet::spend(self, buyer.addr.vm, amount)
    }
}

impl Purses for [Option<u64>] {
    fn balance(&self, buyer: &Buyer) -> u64 {
        self[buyer.vm_idx as usize].unwrap_or(0)
    }
    fn spend(&mut self, buyer: &Buyer, amount: u64) -> u64 {
        debit(self[buyer.vm_idx as usize].get_or_insert(0), amount)
    }
}

/// Outcome summary of an auction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct AuctionOutcome {
    /// Cycles sold in total.
    pub sold: Micros,
    /// Number of window rounds executed.
    pub rounds: u32,
}

/// Run the auction: mutates `market`, `allocations` and the `wallet`.
///
/// `window` bounds the cycles one vCPU may buy per round. Convenience
/// wrapper over [`run_auction_with`] for HashMap-keyed allocations.
pub fn run_auction(
    market: &mut Micros,
    buyers: &mut Vec<Buyer>,
    wallet: &mut Wallet,
    window: Micros,
    allocations: &mut HashMap<VcpuAddr, Micros>,
) -> AuctionOutcome {
    run_auction_with(market, buyers, wallet, window, |buyer, paid| {
        *allocations.entry(buyer.addr).or_insert(Micros::ZERO) += paid;
    })
}

/// [`run_auction`] over any [`Purses`] and with a caller-supplied grant
/// sink: `grant(buyer, paid)` is invoked for every sale instead of
/// touching a HashMap, so the hot path can add into dense per-slot
/// buffers. Allocation-free, and no purse is consulted while sorting:
/// each round reads every buyer's balance once, then orders the caller's
/// buffer by (balance descending, address ascending) — a total order for
/// buyers with distinct addresses, so the unstable sort is deterministic.
///
/// Purses only fall during an auction, so a buyer whose purse reads 0
/// when a round begins can never pay again. It is *parked*: it stays in
/// `buyers`, behind the buyers who can still pay and in address order
/// with the other parked buyers (where the balance order puts it), but
/// later rounds neither re-rank nor visit it. It is visited once, in the
/// round it is parked, so its zero-pay spend creates its purse entry.
/// The outcome, the purses and the `buyers` left behind are those of
/// ranking and visiting every buyer in every round (DESIGN.md §5.4).
pub fn run_auction_with<P: Purses + ?Sized, F: FnMut(&Buyer, Micros)>(
    market: &mut Micros,
    buyers: &mut Vec<Buyer>,
    purses: &mut P,
    window: Micros,
    mut grant: F,
) -> AuctionOutcome {
    let mut sold = Micros::ZERO;
    let mut rounds = 0u32;
    // `buyers[..live]` are ranked each round; `buyers[live..]` are parked,
    // each round's newly parked in address order, ahead of the earlier.
    let mut live = buyers.len();

    while !market.is_zero() && !buyers.is_empty() {
        let round = &mut buyers[..live];
        // Richest VMs first; stable id tiebreak keeps runs deterministic.
        for buyer in round.iter_mut() {
            buyer.rank = !purses.balance(buyer);
        }
        round.sort_unstable_by_key(|b| (b.rank, b.addr));
        // The broke sort last: `round[payers..]` is parked this round.
        let payers = round.partition_point(|b| b.rank != BROKE);

        let mut any_sold = false;
        for buyer in round.iter_mut() {
            if market.is_zero() {
                break;
            }
            let bid = window.min(buyer.want).min(*market);
            if bid.is_zero() {
                continue;
            }
            let paid = Micros(purses.spend(buyer, bid.as_u64()));
            if paid.is_zero() {
                continue;
            }
            *market -= paid;
            buyer.want -= paid;
            sold += paid;
            grant(buyer, paid);
            any_sold = true;
        }

        // Drop the satisfied. The parked tail survived an earlier retain,
        // so it stays whole, and the newly parked now lead it.
        let mut seen = 0;
        let mut kept_payers = 0;
        buyers.retain(|b| {
            let keep = !b.want.is_zero();
            kept_payers += usize::from(keep && seen < payers);
            seen += 1;
            keep
        });
        live = kept_payers;
        rounds += 1;

        if !any_sold {
            // Nobody could pay: the rest is stage 5's to give away.
            break;
        }
    }
    // Where the balance order puts the broke: by address, last.
    buyers[live..].sort_unstable_by_key(|b| b.addr);

    AuctionOutcome { sold, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::VcpuObservation;
    use proptest::prelude::*;
    use vfc_simcore::{CpuId, MHz, VcpuId, VmId};

    fn addr(vm: u32, j: u32) -> VcpuAddr {
        VcpuAddr::new(VmId::new(vm), VcpuId::new(j))
    }

    fn wallet_with(balances: &[(u32, u64)]) -> Wallet {
        let mut w = Wallet::new();
        let guarantee: HashMap<VmId, Micros> = balances
            .iter()
            .map(|(vm, bal)| (VmId::new(*vm), Micros(*bal)))
            .collect();
        let obs: Vec<VcpuObservation> = balances
            .iter()
            .map(|(vm, _)| VcpuObservation {
                addr: addr(*vm, 0),
                slot: 0,
                vm_idx: 0,
                used: Micros::ZERO,
                throttled: Micros::ZERO,
                last_cpu: CpuId::new(0),
                freq_est: MHz(0),
            })
            .collect();
        w.earn(&obs, &guarantee);
        w
    }

    #[test]
    fn single_buyer_with_credit_gets_its_want() {
        let mut market = Micros(500_000);
        let mut wallet = wallet_with(&[(0, 1_000_000)]);
        let mut buyers = vec![Buyer::new(addr(0, 0), Micros(300_000))];
        let mut alloc = HashMap::new();
        let out = run_auction(
            &mut market,
            &mut buyers,
            &mut wallet,
            Micros(100_000),
            &mut alloc,
        );
        assert_eq!(out.sold, Micros(300_000));
        assert_eq!(market, Micros(200_000));
        assert_eq!(alloc[&addr(0, 0)], Micros(300_000));
        assert_eq!(wallet.balance(VmId::new(0)), 700_000);
        assert!(buyers.is_empty());
    }

    #[test]
    fn broke_buyer_gets_nothing() {
        let mut market = Micros(500_000);
        let mut wallet = Wallet::new();
        let mut buyers = vec![Buyer::new(addr(0, 0), Micros(300_000))];
        let mut alloc = HashMap::new();
        let out = run_auction(
            &mut market,
            &mut buyers,
            &mut wallet,
            Micros(100_000),
            &mut alloc,
        );
        assert_eq!(out.sold, Micros::ZERO);
        assert_eq!(market, Micros(500_000), "leftovers stay for stage 5");
        assert!(alloc.is_empty());
    }

    #[test]
    fn window_prevents_rich_vm_from_draining_the_market() {
        // Rich vm0 and modest vm1 both want 200k; the market only holds
        // 200k. With a 50k window they alternate: the rich VM cannot take
        // everything before vm1 gets its rounds.
        let mut market = Micros(200_000);
        let mut wallet = wallet_with(&[(0, 10_000_000), (1, 100_000)]);
        let mut buyers = vec![
            Buyer::new(addr(0, 0), Micros(200_000)),
            Buyer::new(addr(1, 0), Micros(200_000)),
        ];
        let mut alloc = HashMap::new();
        run_auction(
            &mut market,
            &mut buyers,
            &mut wallet,
            Micros(50_000),
            &mut alloc,
        );
        assert_eq!(market, Micros::ZERO);
        // vm1 bought the 100k its wallet allowed; rich vm0 the other 100k.
        assert_eq!(alloc[&addr(1, 0)], Micros(100_000));
        assert_eq!(alloc[&addr(0, 0)], Micros(100_000));
    }

    #[test]
    fn richer_vm_is_served_first_when_market_is_tiny() {
        let mut market = Micros(30_000);
        let mut wallet = wallet_with(&[(0, 500_000), (1, 100)]);
        let mut buyers = vec![
            Buyer::new(addr(1, 0), Micros(30_000)),
            Buyer::new(addr(0, 0), Micros(30_000)),
        ];
        let mut alloc = HashMap::new();
        run_auction(
            &mut market,
            &mut buyers,
            &mut wallet,
            Micros(50_000),
            &mut alloc,
        );
        // vm0 outbids within the first window.
        assert_eq!(alloc[&addr(0, 0)], Micros(30_000));
        assert_eq!(alloc.get(&addr(1, 0)), None);
    }

    #[test]
    fn partial_payment_when_wallet_smaller_than_window() {
        let mut market = Micros(100_000);
        let mut wallet = wallet_with(&[(0, 12_345)]);
        let mut buyers = vec![Buyer::new(addr(0, 0), Micros(100_000))];
        let mut alloc = HashMap::new();
        let out = run_auction(
            &mut market,
            &mut buyers,
            &mut wallet,
            Micros(50_000),
            &mut alloc,
        );
        assert_eq!(out.sold, Micros(12_345));
        assert_eq!(wallet.balance(VmId::new(0)), 0);
        // Still wants more but cannot pay: remains unsatisfied, auction
        // terminated.
        assert_eq!(buyers.len(), 1);
    }

    #[test]
    fn auction_is_deterministic() {
        let run_once = || {
            let mut market = Micros(333_333);
            let mut wallet = wallet_with(&[(0, 100_000), (1, 100_000), (2, 50_000)]);
            let mut buyers = vec![
                Buyer::new(addr(0, 0), Micros(150_000)),
                Buyer::new(addr(1, 0), Micros(150_000)),
                Buyer::new(addr(2, 0), Micros(150_000)),
            ];
            let mut alloc = HashMap::new();
            run_auction(
                &mut market,
                &mut buyers,
                &mut wallet,
                Micros(10_000),
                &mut alloc,
            );
            let mut v: Vec<_> = alloc.into_iter().collect();
            v.sort();
            v
        };
        assert_eq!(run_once(), run_once());
    }

    /// The round loop before broke buyers were parked: every round ranks,
    /// sorts and visits every buyer. The oracle [`run_auction_with`] must
    /// equal bit for bit.
    fn reference_auction<P: Purses + ?Sized, F: FnMut(&Buyer, Micros)>(
        market: &mut Micros,
        buyers: &mut Vec<Buyer>,
        purses: &mut P,
        window: Micros,
        mut grant: F,
    ) -> AuctionOutcome {
        let mut sold = Micros::ZERO;
        let mut rounds = 0u32;

        while !market.is_zero() && !buyers.is_empty() {
            for buyer in buyers.iter_mut() {
                buyer.rank = !purses.balance(buyer);
            }
            buyers.sort_unstable_by_key(|b| (b.rank, b.addr));

            let mut any_sold = false;
            for buyer in buyers.iter_mut() {
                if market.is_zero() {
                    break;
                }
                let bid = window.min(buyer.want).min(*market);
                if bid.is_zero() {
                    continue;
                }
                let paid = Micros(purses.spend(buyer, bid.as_u64()));
                if paid.is_zero() {
                    continue;
                }
                *market -= paid;
                buyer.want -= paid;
                sold += paid;
                grant(buyer, paid);
                any_sold = true;
            }

            buyers.retain(|b| !b.want.is_zero());
            rounds += 1;

            if !any_sold {
                break;
            }
        }

        AuctionOutcome { sold, rounds }
    }

    /// One side of the equivalence: everything an auction run leaves.
    #[derive(Debug, PartialEq)]
    struct Run {
        outcome: AuctionOutcome,
        market: Micros,
        grants: Vec<(VcpuAddr, Micros)>,
        purses: Vec<Option<u64>>,
        buyers: Vec<Buyer>,
    }

    type Auction = fn(
        &mut Micros,
        &mut Vec<Buyer>,
        &mut [Option<u64>],
        Micros,
        &mut dyn FnMut(&Buyer, Micros),
    ) -> AuctionOutcome;

    fn run_with(
        auction: Auction,
        market: u64,
        buyers: &[Buyer],
        purses: &[Option<u64>],
        window: u64,
    ) -> Run {
        let mut market = Micros(market);
        let mut buyers = buyers.to_vec();
        let mut purses = purses.to_vec();
        let mut grants = Vec::new();
        let outcome = auction(
            &mut market,
            &mut buyers,
            &mut purses,
            Micros(window),
            &mut |b, paid| grants.push((b.addr, paid)),
        );
        Run {
            outcome,
            market,
            grants,
            purses,
            buyers,
        }
    }

    /// Dense purses for `n` VMs: absent, zero or positive, each about a
    /// third of the time.
    fn purses_of(codes: &[(u8, u64)]) -> Vec<Option<u64>> {
        codes
            .iter()
            .map(|&(kind, amount)| match kind {
                0 => None,
                1 => Some(0),
                _ => Some(amount),
            })
            .collect()
    }

    proptest! {
        /// Parking broke buyers changes nothing the auction leaves: the
        /// outcome, the market, every grant in order, every purse entry
        /// (present or not, and its value) and the `buyers` left behind,
        /// content and order, all equal the round loop that re-ranks and
        /// visits everyone.
        #[test]
        fn prop_parking_equals_the_full_round_loop(
            market in 0u64..3_000_000,
            // (vCPUs of the VM, want of each vCPU); a zero want included.
            vms in proptest::collection::vec(
                (1u32..5, proptest::collection::vec(0u64..400_000, 4)),
                0..10,
            ),
            purse_codes in proptest::collection::vec((0u8..3, 0u64..300_000), 10),
            window in 0u64..500_000,
            order_seed in 0u64..u64::MAX,
        ) {
            let purses = purses_of(&purse_codes);
            let mut buyers: Vec<Buyer> = Vec::new();
            for (vm, (vcpus, wants)) in vms.iter().enumerate() {
                for j in 0..*vcpus {
                    let mut b = Buyer::new(addr(vm as u32, j), Micros(wants[j as usize]));
                    b.vm_idx = vm as u32;
                    buyers.push(b);
                }
            }
            // Any caller order: the first round sorts it away.
            let mut s = order_seed;
            for i in (1..buyers.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                buyers.swap(i, (s >> 33) as usize % (i + 1));
            }
            let parked = run_with(|m, b, p, w, g| run_auction_with(m, b, p, w, g),
                                  market, &buyers, &purses, window);
            let full = run_with(|m, b, p, w, g| reference_auction(m, b, p, w, g),
                                market, &buyers, &purses, window);
            prop_assert_eq!(parked, full);
        }

        #[test]
        fn prop_auction_invariants(
            market0 in 0u64..2_000_000,
            wants in proptest::collection::vec((0u32..6, 0u64..500_000), 0..12),
            balances in proptest::collection::vec(0u64..800_000, 6),
            window in 1u64..200_000,
        ) {
            let mut wallet = wallet_with(
                &balances.iter().enumerate()
                    .map(|(i, b)| (i as u32, *b))
                    .collect::<Vec<_>>(),
            );
            let initial_balance: u64 = (0..6).map(|i| wallet.balance(VmId::new(i))).sum();
            let mut market = Micros(market0);
            let mut buyers: Vec<Buyer> = wants.iter().enumerate()
                .map(|(j, (vm, w))| Buyer::new(addr(*vm, j as u32), Micros(*w)))
                .collect();
            let total_want: u64 = buyers.iter().map(|b| b.want.as_u64()).sum();
            let mut alloc = HashMap::new();
            let out = run_auction(&mut market, &mut buyers, &mut wallet,
                                  Micros(window), &mut alloc);

            // Never oversell the market.
            prop_assert_eq!(out.sold + market, Micros(market0));
            // Never sell more than was wanted.
            prop_assert!(out.sold.as_u64() <= total_want);
            // Credits pay exactly for what was sold.
            let final_balance: u64 = (0..6).map(|i| wallet.balance(VmId::new(i))).sum();
            prop_assert_eq!(initial_balance - final_balance, out.sold.as_u64());
            // Allocations sum to what was sold.
            let granted: u64 = alloc.values().map(|m| m.as_u64()).sum();
            prop_assert_eq!(granted, out.sold.as_u64());
        }
    }
}
