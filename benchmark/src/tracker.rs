//! The unique-amount credit tracker.
//!
//! A tracked operation moves an amount no other operation of the run
//! moves to the same address, so "the transfer arrived" is an
//! observation anyone can make from outside: an unspent output of
//! exactly that amount, owned by the receiver, on the destination
//! chain. The tracker remembers when each operation was submitted (tick
//! and system-clock reading) and, when the output is first seen, turns
//! that into a latency in blocks and in system-clock milliseconds.

use std::collections::HashMap;
use std::time::Duration;

use zendoo_core::ids::Address;

/// Where a credit is expected to appear.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Place {
    /// The mainchain UTXO set.
    Mainchain,
    /// The MST of the `n`-th declared sidechain.
    Sidechain(usize),
}

/// The lifecycle an operation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// Mainchain → sidechain forward transfer.
    Forward,
    /// Payment inside one sidechain.
    Pay,
    /// Sidechain → mainchain backward transfer.
    Backward,
    /// Sidechain → sidechain cross-chain transfer.
    Cross,
    /// Plain mainchain transfer.
    Transfer,
}

impl Kind {
    /// Every kind, in reporting order.
    pub const ALL: [Kind; 5] = [
        Kind::Forward,
        Kind::Pay,
        Kind::Backward,
        Kind::Cross,
        Kind::Transfer,
    ];

    /// The short name used in counts and reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Forward => "ft",
            Kind::Pay => "pay",
            Kind::Backward => "bt",
            Kind::Cross => "xct",
            Kind::Transfer => "transfer",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    kind: Kind,
    tick: u32,
    system_at: Duration,
}

/// One completed lifecycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Credit {
    /// The lifecycle.
    pub kind: Kind,
    /// Mainchain blocks from submission to credit (a transfer credited
    /// by the block of its own tick took 1).
    pub blocks: u32,
    /// System-clock time from just before the submit call to the end of
    /// the step that credited it.
    pub system: Duration,
}

/// Expected credits keyed by `(place, receiver, amount)`.
#[derive(Default)]
pub struct Tracker {
    pending: HashMap<(Place, Address, u64), Pending>,
    credits: Vec<Credit>,
    submitted: HashMap<Kind, u64>,
    duplicates: u64,
}

impl Tracker {
    /// Registers an operation submitted at `tick` with the system clock
    /// reading `system_at`. Returns `false` (and counts a duplicate)
    /// when the key is already awaited — the amounts were not unique.
    pub fn expect(
        &mut self,
        kind: Kind,
        place: Place,
        receiver: Address,
        amount: u64,
        tick: u32,
        system_at: Duration,
    ) -> bool {
        *self.submitted.entry(kind).or_default() += 1;
        let fresh = self
            .pending
            .insert(
                (place, receiver, amount),
                Pending {
                    kind,
                    tick,
                    system_at,
                },
            )
            .is_none();
        if !fresh {
            self.duplicates += 1;
        }
        fresh
    }

    /// The distinct `(place, receiver)` pairs still awaiting a credit,
    /// sorted: the outputs to look up after the next block.
    pub fn awaited(&self) -> Vec<(Place, Address)> {
        let mut out: Vec<_> = self.pending.keys().map(|(p, a, _)| (*p, *a)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Feeds the amounts of every unspent output `receiver` owns at
    /// `place`, as observed after the block of `tick` with the system
    /// clock at `system_now`. Each awaited amount present is credited;
    /// present more than once it is credited once and the surplus
    /// counted as a duplicate (value delivered twice).
    pub fn observe(
        &mut self,
        place: Place,
        receiver: Address,
        amounts: &[u64],
        tick: u32,
        system_now: Duration,
    ) {
        let mut seen: HashMap<u64, u64> = HashMap::new();
        for amount in amounts {
            *seen.entry(*amount).or_default() += 1;
        }
        for (amount, count) in seen {
            let Some(pending) = self.pending.remove(&(place, receiver, amount)) else {
                continue;
            };
            self.duplicates += count - 1;
            self.credits.push(Credit {
                kind: pending.kind,
                blocks: tick - pending.tick + 1,
                system: system_now - pending.system_at,
            });
        }
    }

    /// Operations still awaiting their credit.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Keys registered or outputs seen more than once.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Operations submitted, by kind.
    pub fn submitted(&self, kind: Kind) -> u64 {
        self.submitted.get(&kind).copied().unwrap_or(0)
    }

    /// Every completed lifecycle, in completion order.
    pub fn credits(&self) -> &[Credit] {
        &self.credits
    }

    /// Latencies of one kind: `(blocks, system milliseconds)` each.
    pub fn latencies(&self, kind: Kind) -> (Vec<f64>, Vec<f64>) {
        self.credits
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| (f64::from(c.blocks), c.system.as_secs_f64() * 1e3))
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(label: &str) -> Address {
        Address::from_label(label)
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn credits_each_unique_amount_once_with_both_latencies() {
        let mut t = Tracker::default();
        let (alice, bob) = (addr("alice"), addr("bob"));
        assert!(t.expect(Kind::Cross, Place::Sidechain(1), alice, 1_001, 3, 100 * MS));
        assert!(t.expect(Kind::Backward, Place::Mainchain, alice, 1_002, 3, 105 * MS));
        assert!(t.expect(Kind::Pay, Place::Sidechain(1), bob, 1_003, 4, 200 * MS));
        assert_eq!(t.awaited(), {
            let mut want = vec![
                (Place::Mainchain, alice),
                (Place::Sidechain(1), alice),
                (Place::Sidechain(1), bob),
            ];
            want.sort_unstable();
            want
        });

        // Same amount, wrong place or wrong owner: not a credit.
        t.observe(Place::Sidechain(0), alice, &[1_001], 4, 300 * MS);
        t.observe(Place::Sidechain(1), bob, &[1_001], 4, 300 * MS);
        assert_eq!(t.outstanding(), 3);

        // Change and unrelated outputs beside the awaited one.
        t.observe(Place::Sidechain(1), alice, &[48_999, 1_001, 7], 9, 900 * MS);
        assert_eq!(
            t.credits(),
            [Credit {
                kind: Kind::Cross,
                blocks: 7,
                system: 800 * MS
            }]
        );
        // Seeing the output again later does not credit twice.
        t.observe(Place::Sidechain(1), alice, &[1_001], 10, 950 * MS);
        assert_eq!(t.credits().len(), 1);

        t.observe(Place::Sidechain(1), bob, &[1_003], 4, 260 * MS);
        t.observe(Place::Mainchain, alice, &[1_002], 14, 2_105 * MS);
        assert_eq!(t.outstanding(), 0);
        assert_eq!(t.duplicates(), 0);
        assert_eq!(t.latencies(Kind::Pay), (vec![1.0], vec![60.0]));
        assert_eq!(t.latencies(Kind::Backward), (vec![12.0], vec![2_000.0]));
        assert_eq!(t.submitted(Kind::Cross), 1);
        assert_eq!(t.submitted(Kind::Forward), 0);
    }

    #[test]
    fn value_delivered_twice_and_reused_amounts_are_duplicates() {
        let mut t = Tracker::default();
        let alice = addr("alice");
        assert!(t.expect(
            Kind::Cross,
            Place::Sidechain(2),
            alice,
            500,
            0,
            Duration::ZERO
        ));
        assert!(!t.expect(Kind::Cross, Place::Sidechain(2), alice, 500, 1, MS));
        assert_eq!(t.duplicates(), 1);
        t.observe(Place::Sidechain(2), alice, &[500, 500, 500], 5, 10 * MS);
        assert_eq!(t.credits().len(), 1);
        assert_eq!(t.duplicates(), 3);
    }
}
