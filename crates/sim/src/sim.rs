//! The simulation engine: per-site clocks and the shared network link.
//!
//! Strategies execute for real over generated data and *narrate* their
//! work to the engine: CPU comparisons, disk bytes, and messages. The
//! engine composes per-site sequential clocks with message causality
//! (`recv` waits for the sender's transfer to arrive) and serializes all
//! transfers on one shared link, reproducing the paper's observation that
//! "the transfer time gets longer when more component databases transfer
//! data simultaneously".

use crate::ledger::{Ledger, Phase, Resource};
use crate::metrics::QueryMetrics;
use crate::params::SystemParams;
use crate::time::SimTime;
use fedoq_object::DbId;
use std::collections::HashMap;
use std::fmt;

/// How the communication medium arbitrates concurrent transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetworkModel {
    /// One shared medium: every transfer serializes on a single link
    /// (the paper's "transfer time gets longer when more component
    /// databases transfer data simultaneously").
    #[default]
    SharedBus,
    /// A dedicated full-duplex link per ordered site pair: transfers
    /// between different pairs proceed in parallel.
    PointToPoint,
}

/// A processing site: one of the component databases, or the global
/// processing site that integrates and answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// A component database.
    Db(DbId),
    /// The global processing site.
    Global,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Db(db) => write!(f, "{db}"),
            Site::Global => f.write_str("global"),
        }
    }
}

/// Handle to an in-flight message; `recv` synchronizes on its arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "a message that is never received synchronizes nothing"]
pub struct MessageToken {
    arrival: SimTime,
    bytes: u64,
}

impl MessageToken {
    /// When the last byte reaches the receiver.
    pub fn arrival(self) -> SimTime {
        self.arrival
    }

    /// Message size in bytes.
    pub fn bytes(self) -> u64 {
        self.bytes
    }
}

/// The cost-accounting simulation of one query execution.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Simulation {
    params: SystemParams,
    network: NetworkModel,
    clocks: Vec<SimTime>,
    net_free: SimTime,
    link_free: HashMap<(usize, usize), SimTime>,
    ledger: Ledger,
    bytes_transferred: u64,
    comparisons: u64,
    disk_bytes: u64,
    messages: u64,
}

impl Simulation {
    /// Creates a simulation over `num_dbs` component sites plus the global
    /// site, all clocks at zero.
    pub fn new(params: SystemParams, num_dbs: usize) -> Simulation {
        Simulation::with_network(params, num_dbs, NetworkModel::SharedBus)
    }

    /// Creates a simulation with an explicit network arbitration model.
    pub fn with_network(params: SystemParams, num_dbs: usize, network: NetworkModel) -> Simulation {
        Simulation {
            params,
            network,
            clocks: vec![SimTime::ZERO; num_dbs + 1],
            net_free: SimTime::ZERO,
            link_free: HashMap::new(),
            ledger: Ledger::new(),
            bytes_transferred: 0,
            comparisons: 0,
            disk_bytes: 0,
            messages: 0,
        }
    }

    /// The network arbitration model in force.
    pub fn network(&self) -> NetworkModel {
        self.network
    }

    /// The cost parameters in force.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Number of component databases.
    pub fn num_dbs(&self) -> usize {
        self.clocks.len() - 1
    }

    fn index(&self, site: Site) -> usize {
        match site {
            Site::Db(db) => {
                assert!(db.index() < self.num_dbs(), "site {db} out of range");
                db.index()
            }
            Site::Global => self.clocks.len() - 1,
        }
    }

    fn ledger_site(site: Site) -> Option<DbId> {
        match site {
            Site::Db(db) => Some(db),
            Site::Global => None,
        }
    }

    /// The local clock of a site.
    pub fn now(&self, site: Site) -> SimTime {
        self.clocks[self.index(site)]
    }

    /// Charges `comparisons` CPU comparisons at `site` (advances its clock).
    pub fn cpu(&mut self, site: Site, comparisons: u64, phase: Phase) {
        if comparisons == 0 {
            return;
        }
        self.comparisons += comparisons;
        let dur = SimTime::from_micros(comparisons as f64 * self.params.cpu_us_per_cmp);
        let i = self.index(site);
        let start = self.clocks[i];
        self.clocks[i] += dur;
        self.ledger
            .charge(Self::ledger_site(site), Resource::Cpu, phase, start, dur);
    }

    /// Charges CPU work split across parallel workers at `site`.
    ///
    /// Each entry of `shares` is one worker's comparison count. Every
    /// share is charged to the ledger from the same start instant (the
    /// workers genuinely overlap, so *total* execution time counts all of
    /// the busy time), but the site clock — and therefore the response
    /// time — advances only by the largest share: the critical path of
    /// the fork/join. With a single share this is exactly [`cpu`].
    ///
    /// [`cpu`]: Simulation::cpu
    pub fn cpu_parallel(&mut self, site: Site, shares: &[u64], phase: Phase) {
        let total: u64 = shares.iter().sum();
        if total == 0 {
            return;
        }
        self.comparisons += total;
        let i = self.index(site);
        let start = self.clocks[i];
        let mut max_dur = SimTime::ZERO;
        for &share in shares {
            if share == 0 {
                continue;
            }
            let dur = SimTime::from_micros(share as f64 * self.params.cpu_us_per_cmp);
            max_dur = max_dur.max(dur);
            self.ledger
                .charge(Self::ledger_site(site), Resource::Cpu, phase, start, dur);
        }
        self.clocks[i] = start + max_dur;
    }

    /// Charges a disk read/write of `bytes` at `site` (advances its clock).
    pub fn disk(&mut self, site: Site, bytes: u64, phase: Phase) {
        if bytes == 0 {
            return;
        }
        self.disk_bytes += bytes;
        let dur = SimTime::from_micros(bytes as f64 * self.params.disk_us_per_byte);
        let i = self.index(site);
        let start = self.clocks[i];
        self.clocks[i] += dur;
        self.ledger
            .charge(Self::ledger_site(site), Resource::Disk, phase, start, dur);
    }

    /// Charges disk transfers split across parallel workers at `site`.
    ///
    /// The disk analogue of [`cpu_parallel`]: all shares are charged as
    /// overlapping busy time, the clock advances by the largest share.
    ///
    /// [`cpu_parallel`]: Simulation::cpu_parallel
    pub fn disk_parallel(&mut self, site: Site, shares: &[u64], phase: Phase) {
        let total: u64 = shares.iter().sum();
        if total == 0 {
            return;
        }
        self.disk_bytes += total;
        let i = self.index(site);
        let start = self.clocks[i];
        let mut max_dur = SimTime::ZERO;
        for &share in shares {
            if share == 0 {
                continue;
            }
            let dur = SimTime::from_micros(share as f64 * self.params.disk_us_per_byte);
            max_dur = max_dur.max(dur);
            self.ledger
                .charge(Self::ledger_site(site), Resource::Disk, phase, start, dur);
        }
        self.clocks[i] = start + max_dur;
    }

    /// Sends `bytes` from `from` to `to` over the shared link.
    ///
    /// The transfer starts no earlier than the sender's clock and no
    /// earlier than the link is free; the link is busy for the whole
    /// transfer (serializing concurrent senders). Sending does not block
    /// the sender. Zero-byte messages are pure synchronization and cost
    /// nothing.
    pub fn send(&mut self, from: Site, to: Site, bytes: u64, phase: Phase) -> MessageToken {
        let ready = self.now(from);
        if bytes == 0 {
            return MessageToken {
                arrival: ready,
                bytes: 0,
            };
        }
        self.bytes_transferred += bytes;
        self.messages += 1;
        let dur = SimTime::from_micros(bytes as f64 * self.params.net_us_per_byte);
        let start = match self.network {
            NetworkModel::SharedBus => {
                let start = ready.max(self.net_free);
                self.net_free = start + dur;
                start
            }
            NetworkModel::PointToPoint => {
                let key = (self.index(from), self.index(to));
                let free = self.link_free.entry(key).or_insert(SimTime::ZERO);
                let start = ready.max(*free);
                *free = start + dur;
                start
            }
        };
        let arrival = start + dur;
        self.ledger.charge(None, Resource::Net, phase, start, dur);
        MessageToken { arrival, bytes }
    }

    /// Sends a batch of messages that become ready concurrently, granting
    /// the link in sender-readiness order (fair FCFS arbitration rather
    /// than call order).
    pub fn send_batch(&mut self, sends: Vec<(Site, Site, u64, Phase)>) -> Vec<MessageToken> {
        let mut order: Vec<usize> = (0..sends.len()).collect();
        order.sort_by(|&a, &b| {
            self.now(sends[a].0)
                .partial_cmp(&self.now(sends[b].0))
                .expect("clocks are finite")
        });
        let mut tokens = vec![
            MessageToken {
                arrival: SimTime::ZERO,
                bytes: 0
            };
            sends.len()
        ];
        for i in order {
            let (from, to, bytes, phase) = sends[i];
            tokens[i] = self.send(from, to, bytes, phase);
        }
        tokens
    }

    /// Blocks `site` until `message` has arrived.
    pub fn recv(&mut self, site: Site, message: MessageToken) {
        let i = self.index(site);
        self.clocks[i] = self.clocks[i].max(message.arrival);
    }

    /// Blocks `site` until all of `messages` have arrived.
    pub fn recv_all<I: IntoIterator<Item = MessageToken>>(&mut self, site: Site, messages: I) {
        for m in messages {
            self.recv(site, m);
        }
    }

    /// The ledger of all charges so far.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Bytes sent over the network so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Busy fraction of every resource over the response horizon: one
    /// entry per component site, then the global site, then the network.
    /// Empty horizon yields zeros. Diagnoses where a strategy's
    /// parallelism is lost (an idle site) or its bottleneck sits (a
    /// saturated link).
    pub fn utilization(&self) -> Vec<f64> {
        let horizon = self
            .clocks
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max)
            .max(self.net_free)
            .as_micros();
        if horizon <= 0.0 {
            return vec![0.0; self.clocks.len() + 1];
        }
        let mut out = Vec::with_capacity(self.clocks.len() + 1);
        for db in 0..self.num_dbs() {
            out.push(self.ledger.total_for_site(DbId::new(db as u16)).as_micros() / horizon);
        }
        out.push(self.ledger.total_for_global_site().as_micros() / horizon);
        out.push(self.ledger.total_for_resource(Resource::Net).as_micros() / horizon);
        out
    }

    /// Snapshot of the aggregate metrics. Response time is the global
    /// site's clock — call after the strategy delivered its final answer
    /// there.
    pub fn metrics(&self) -> QueryMetrics {
        QueryMetrics {
            total_execution_us: self.ledger.total().as_micros(),
            response_us: self.now(Site::Global).as_micros(),
            bytes_transferred: self.bytes_transferred,
            comparisons: self.comparisons,
            disk_bytes: self.disk_bytes,
            messages: self.messages,
            phase_us: Phase::ALL.map(|p| self.ledger.total_for_phase(p).as_micros()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> Simulation {
        Simulation::new(SystemParams::paper_default(), 3)
    }

    #[test]
    fn cpu_and_disk_advance_the_site_clock() {
        let mut s = sim();
        let a = Site::Db(DbId::new(0));
        s.cpu(a, 10, Phase::P); // 5 µs
        s.disk(a, 10, Phase::P); // 150 µs
        assert_eq!(s.now(a).as_micros(), 155.0);
        assert_eq!(s.now(Site::Global).as_micros(), 0.0);
        assert_eq!(s.metrics().total_execution_us, 155.0);
    }

    #[test]
    fn zero_charges_are_free() {
        let mut s = sim();
        let a = Site::Db(DbId::new(0));
        s.cpu(a, 0, Phase::P);
        s.disk(a, 0, Phase::P);
        let m = s.send(a, Site::Global, 0, Phase::Ship);
        assert_eq!(m.bytes(), 0);
        assert_eq!(s.metrics().total_execution_us, 0.0);
        assert!(s.ledger().is_empty());
    }

    #[test]
    fn parallel_charges_count_all_work_but_advance_by_the_critical_path() {
        let mut s = sim();
        let a = Site::Db(DbId::new(0));
        // Three workers: 10, 30, 20 comparisons at 0.5 µs each.
        s.cpu_parallel(a, &[10, 30, 20], Phase::P);
        assert_eq!(s.now(a).as_micros(), 15.0); // max share only
        assert_eq!(s.metrics().total_execution_us, 30.0); // all busy time
        assert_eq!(s.metrics().comparisons, 60);
        // Disk analogue: 15 µs/byte at the defaults.
        s.disk_parallel(a, &[4, 2], Phase::P);
        assert_eq!(s.now(a).as_micros(), 15.0 + 60.0);
        assert_eq!(s.metrics().disk_bytes, 6);
    }

    #[test]
    fn single_share_parallel_equals_sequential() {
        let mut a = sim();
        let mut b = sim();
        let site = Site::Db(DbId::new(1));
        a.cpu(site, 42, Phase::O);
        a.disk(site, 17, Phase::I);
        b.cpu_parallel(site, &[42], Phase::O);
        b.disk_parallel(site, &[17], Phase::I);
        assert_eq!(a.now(site), b.now(site));
        assert_eq!(a.metrics(), b.metrics());
        // Zero and empty shares charge nothing.
        b.cpu_parallel(site, &[], Phase::P);
        b.cpu_parallel(site, &[0, 0], Phase::P);
        b.disk_parallel(site, &[0], Phase::P);
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn messages_respect_causality() {
        let mut s = sim();
        let a = Site::Db(DbId::new(0));
        s.disk(a, 100, Phase::Ship); // sender busy until 1500 µs
        let m = s.send(a, Site::Global, 10, Phase::Ship); // 80 µs transfer
        assert_eq!(m.arrival().as_micros(), 1580.0);
        s.recv(Site::Global, m);
        assert_eq!(s.now(Site::Global).as_micros(), 1580.0);
    }

    #[test]
    fn shared_link_serializes_concurrent_transfers() {
        let mut s = sim();
        let a = Site::Db(DbId::new(0));
        let b = Site::Db(DbId::new(1));
        // Both ready at t=0; 100 B each = 800 µs each on the wire.
        let ma = s.send(a, Site::Global, 100, Phase::Ship);
        let mb = s.send(b, Site::Global, 100, Phase::Ship);
        assert_eq!(ma.arrival().as_micros(), 800.0);
        assert_eq!(mb.arrival().as_micros(), 1600.0); // waited for the link
        s.recv_all(Site::Global, [ma, mb]);
        assert_eq!(s.now(Site::Global).as_micros(), 1600.0);
        // Total = both transfers' busy time.
        assert_eq!(s.metrics().total_execution_us, 1600.0);
    }

    #[test]
    fn point_to_point_links_carry_disjoint_pairs_in_parallel() {
        let mut s =
            Simulation::with_network(SystemParams::paper_default(), 4, NetworkModel::PointToPoint);
        assert_eq!(s.network(), NetworkModel::PointToPoint);
        let a = Site::Db(DbId::new(0));
        let b = Site::Db(DbId::new(1));
        // Different (from, to) pairs: both 800 µs transfers overlap fully.
        let ma = s.send(a, Site::Global, 100, Phase::Ship);
        let mb = s.send(b, Site::Global, 100, Phase::Ship);
        assert_eq!(ma.arrival().as_micros(), 800.0);
        assert_eq!(mb.arrival().as_micros(), 800.0);
        // The same pair still serializes.
        let ma2 = s.send(a, Site::Global, 100, Phase::Ship);
        assert_eq!(ma2.arrival().as_micros(), 1600.0);
        s.recv_all(Site::Global, [ma, mb, ma2]);
        // Total still counts every transfer's busy time.
        assert_eq!(s.metrics().total_execution_us, 2400.0);
        assert_eq!(s.metrics().response_us, 1600.0);
    }

    #[test]
    fn shared_bus_is_the_default_model() {
        let s = Simulation::new(SystemParams::paper_default(), 1);
        assert_eq!(s.network(), NetworkModel::SharedBus);
        assert_eq!(NetworkModel::default(), NetworkModel::SharedBus);
    }

    #[test]
    fn send_batch_grants_link_by_readiness() {
        let mut s = sim();
        let a = Site::Db(DbId::new(0));
        let b = Site::Db(DbId::new(1));
        s.cpu(b, 100, Phase::P); // b ready at 50 µs
        s.cpu(a, 10, Phase::P); // a ready at 5 µs
                                // Issue b's send first in call order; readiness order must win.
        let tokens = s.send_batch(vec![
            (b, Site::Global, 10, Phase::Ship),
            (a, Site::Global, 10, Phase::Ship),
        ]);
        // a: starts 5, 80 µs -> 85. b: ready 50, link free at 85 -> 165.
        assert_eq!(tokens[1].arrival().as_micros(), 85.0);
        assert_eq!(tokens[0].arrival().as_micros(), 165.0);
    }

    #[test]
    fn parallel_sites_overlap_in_response_but_not_total() {
        let mut s = sim();
        let a = Site::Db(DbId::new(0));
        let b = Site::Db(DbId::new(1));
        s.disk(a, 100, Phase::P); // 1500 µs
        s.disk(b, 100, Phase::P); // 1500 µs in parallel
        let ma = s.send(a, Site::Global, 1, Phase::Ship);
        let mb = s.send(b, Site::Global, 1, Phase::Ship);
        s.recv_all(Site::Global, [ma, mb]);
        let m = s.metrics();
        // Total counts both disks; response only the overlap + transfers.
        assert_eq!(m.total_execution_us, 3016.0);
        assert_eq!(m.response_us, 1516.0);
    }

    #[test]
    fn utilization_reports_busy_fractions() {
        let mut s = sim();
        let a = Site::Db(DbId::new(0));
        s.disk(a, 100, Phase::P); // 1500 µs busy, horizon 1500
        let util = s.utilization();
        assert_eq!(util.len(), 5); // 3 dbs + global + net
        assert!((util[0] - 1.0).abs() < 1e-9);
        assert_eq!(util[1], 0.0);
        assert_eq!(util[4], 0.0);
        // An idle simulation reports zeros.
        let idle = sim();
        assert!(idle.utilization().iter().all(|&u| u == 0.0));
    }

    #[test]
    fn metrics_track_counts() {
        let mut s = sim();
        let a = Site::Db(DbId::new(0));
        s.cpu(a, 7, Phase::O);
        s.disk(a, 11, Phase::O);
        let m1 = s.send(a, Site::Global, 13, Phase::O);
        s.recv(Site::Global, m1);
        let m = s.metrics();
        assert_eq!(m.comparisons, 7);
        assert_eq!(m.disk_bytes, 11);
        assert_eq!(m.bytes_transferred, 13);
        assert_eq!(m.messages, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_site_panics() {
        let s = sim();
        let _ = s.now(Site::Db(DbId::new(9)));
    }

    #[test]
    fn site_display() {
        assert_eq!(Site::Db(DbId::new(2)).to_string(), "DB2");
        assert_eq!(Site::Global.to_string(), "global");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One random step of a simulated execution.
        #[derive(Debug, Clone)]
        enum Step {
            Cpu(u8, u16),
            Disk(u8, u16),
            Send(u8, u16),
        }

        fn arb_step(num_dbs: u8) -> impl Strategy<Value = Step> {
            prop_oneof![
                (0..num_dbs, any::<u16>()).prop_map(|(s, n)| Step::Cpu(s, n)),
                (0..num_dbs, any::<u16>()).prop_map(|(s, n)| Step::Disk(s, n)),
                (0..num_dbs, any::<u16>()).prop_map(|(s, n)| Step::Send(s, n)),
            ]
        }

        proptest! {
            /// Whatever the execution does, if the global site receives
            /// every message, response time never exceeds total execution
            /// time, and totals equal the ledger sum.
            #[test]
            fn response_bounded_by_total(steps in proptest::collection::vec(arb_step(3), 0..40)) {
                let mut s = Simulation::new(SystemParams::paper_default(), 3);
                let mut tokens = Vec::new();
                for step in steps {
                    match step {
                        Step::Cpu(db, n) => s.cpu(Site::Db(DbId::new(db as u16)), n as u64, Phase::P),
                        Step::Disk(db, n) => s.disk(Site::Db(DbId::new(db as u16)), n as u64, Phase::P),
                        Step::Send(db, n) => {
                            tokens.push(s.send(Site::Db(DbId::new(db as u16)), Site::Global, n as u64, Phase::O));
                        }
                    }
                }
                s.recv_all(Site::Global, tokens);
                let m = s.metrics();
                prop_assert!(m.total_execution_us + 1e-9 >= m.response_us);
                prop_assert!((m.total_execution_us - s.ledger().total().as_micros()).abs() < 1e-6);
                let phase_sum: f64 = m.phase_us.iter().sum();
                prop_assert!((phase_sum - m.total_execution_us).abs() < 1e-6);
            }

            /// The shared link never overlaps transfers and never goes
            /// backwards in time.
            #[test]
            fn link_serializes(sizes in proptest::collection::vec(1u64..500, 1..20)) {
                let mut s = Simulation::new(SystemParams::paper_default(), 2);
                for (i, bytes) in sizes.iter().enumerate() {
                    let from = Site::Db(DbId::new((i % 2) as u16));
                    let _ = s.send(from, Site::Global, *bytes, Phase::Ship);
                }
                let mut last_end = 0.0f64;
                for e in s.ledger().entries() {
                    if e.resource == Resource::Net {
                        prop_assert!(e.start.as_micros() + 1e-9 >= last_end);
                        last_end = e.end().as_micros();
                    }
                }
            }

            /// Clocks are monotone: charging work never rewinds a site.
            #[test]
            fn clocks_are_monotone(steps in proptest::collection::vec(arb_step(2), 1..30)) {
                let mut s = Simulation::new(SystemParams::paper_default(), 2);
                let mut last = [0.0f64; 3];
                for step in steps {
                    match step {
                        Step::Cpu(db, n) => s.cpu(Site::Db(DbId::new(db as u16)), n as u64, Phase::P),
                        Step::Disk(db, n) => s.disk(Site::Db(DbId::new(db as u16)), n as u64, Phase::I),
                        Step::Send(db, n) => {
                            let t = s.send(Site::Db(DbId::new(db as u16)), Site::Global, n as u64, Phase::O);
                            s.recv(Site::Global, t);
                        }
                    }
                    for (i, site) in [Site::Db(DbId::new(0)), Site::Db(DbId::new(1)), Site::Global]
                        .into_iter()
                        .enumerate()
                    {
                        let now = s.now(site).as_micros();
                        prop_assert!(now + 1e-9 >= last[i]);
                        last[i] = now;
                    }
                }
            }
        }
    }
}
