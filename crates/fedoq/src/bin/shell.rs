//! `fedoq-shell` — an interactive shell over a FedOQ federation.
//!
//! ```text
//! fedoq-shell [--generate <seed>] [--transport local|sim|tcp] [--connect <host:port>]
//! ```
//!
//! Starts on the paper's university federation (or a Table-2 synthetic
//! one with `--generate`) and accepts SQL/X queries — including
//! disjunctive ones — plus introspection commands. With `--transport
//! sim` (or `transport sim` inside the shell) queries run over the
//! distributed site-actor runtime on a simulated network whose faults
//! are controlled by the `faults` and `partition` commands. With
//! `--transport tcp` (or `connect <host:port>` inside the shell)
//! queries are sent to a running `fedoq-serve` frontend — a real
//! multi-process federation. Type `help` inside.

use fedoq::prelude::*;
use fedoq::schema::GlobalAttr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::io::{self, BufRead, Write};
use std::rc::Rc;

/// How shell queries execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransportMode {
    /// The in-process strategies (supports disjunctive queries).
    Off,
    /// Distributed runtime over the instant in-process transport.
    Local,
    /// Distributed runtime over the fault-injectable simulated network.
    Sim,
    /// Queries sent to a `fedoq-serve` frontend over real TCP
    /// (`connect <host:port>`).
    Tcp,
}

/// Fault knobs applied to a fresh `SimTransport` before each query.
struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    latency_us: f64,
    partitions: Vec<(Site, Site)>,
    crashed: Vec<Site>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 42,
            drop_rate: 0.0,
            latency_us: 50.0,
            partitions: Vec::new(),
            crashed: Vec::new(),
        }
    }
}

/// One locally watched standing query.
struct LocalWatch {
    sub: SubId,
    strategy: LiveStrategy,
    sql: String,
    events: fedoq::sync::Receiver<LiveEvent>,
}

struct Shell {
    fed: Federation,
    strategy_name: String,
    last_ledger: Option<fedoq::sim::Ledger>,
    transport: TransportMode,
    faults: FaultPlan,
    /// Parallel-scan / batching / caching tuning (`parallel`, `batch`,
    /// `cache` commands). The default reproduces the paper's sequential
    /// execution exactly.
    pipeline: PipelineConfig,
    /// Persistent executor for distributed runs: its lookup cache
    /// survives across queries, so re-running a query with `cache on`
    /// shows warm-cache behavior.
    executor: DistributedExecutor,
    /// The in-process twin of the executor's cache (`transport off`).
    local_cache: RefCell<LookupCache>,
    /// Lazily scanned statistics catalog for the cost-based planner
    /// (`plan`, `stats`, `adaptive on`). Survives across queries so the
    /// EWMA feedback loop converges on repeated workloads.
    catalog: Option<StatsCatalog>,
    /// When set, `SELECT` lets the planner pick the strategy per query.
    adaptive: bool,
    /// Live connection to a `fedoq-serve` frontend (`transport tcp`).
    wire: Option<fedoq_wire::WireClient>,
    /// Standing-query reactor over a copy of the federation (`watch`).
    /// The `mutate` command applies every change to both copies, so the
    /// reactor's answers always describe the shell's own data.
    live: Option<LiveReactor>,
    /// Local watches by display id (the reactor's subscription id).
    watches: std::collections::BTreeMap<u64, LocalWatch>,
    /// Watches registered on the TCP connection, by server watch id.
    wire_watches: std::collections::BTreeMap<u64, String>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut transport = TransportMode::Off;
    if let Some(i) = args.iter().position(|a| a == "--transport") {
        transport = match args.get(i + 1).map(String::as_str) {
            Some("local") => TransportMode::Local,
            Some("sim") => TransportMode::Sim,
            Some("tcp") => TransportMode::Tcp,
            other => {
                let got = other.unwrap_or("nothing");
                eprintln!("--transport takes `local`, `sim`, or `tcp`, got `{got}`");
                std::process::exit(2);
            }
        };
        args.drain(i..i + 2);
    }
    let mut wire = None;
    if let Some(i) = args.iter().position(|a| a == "--connect") {
        let Some(addr) = args.get(i + 1).cloned() else {
            eprintln!("--connect takes a fedoq-serve address (host:port)");
            std::process::exit(2);
        };
        match fedoq_wire::WireClient::connect(&addr) {
            Ok(client) => {
                transport = TransportMode::Tcp;
                wire = Some(client);
                println!("connected to fedoq-serve at {addr}");
            }
            Err(e) => {
                eprintln!("could not connect to {addr}: {e}");
                std::process::exit(2);
            }
        }
        args.drain(i..i + 2);
    }
    let fed = match args.first().map(String::as_str) {
        Some("--generate") => {
            let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
            let params = WorkloadParams::paper_default().scaled(0.02);
            let config = params.sample(&mut StdRng::seed_from_u64(seed));
            let sample = fedoq::workload::generate(&config, seed);
            println!("generated federation (seed {seed}): {}", sample.federation);
            println!("try: {}", sample.query);
            sample.federation
        }
        Some(other) if other != "--university" => {
            eprintln!(
                "unknown option {other}; usage: fedoq-shell [--generate <seed>] [--transport local|sim]"
            );
            std::process::exit(2);
        }
        _ => {
            let fed = fedoq::workload::university::federation()?;
            println!("loaded the paper's university federation: {fed}");
            println!("try: {}", fedoq::workload::university::Q1);
            fed
        }
    };
    let mut shell = Shell {
        fed,
        strategy_name: "BL".to_owned(),
        last_ledger: None,
        transport,
        faults: FaultPlan::default(),
        pipeline: PipelineConfig::default(),
        executor: DistributedExecutor::new(),
        local_cache: RefCell::new(LookupCache::default()),
        catalog: None,
        adaptive: false,
        wire,
        live: None,
        watches: std::collections::BTreeMap::new(),
        wire_watches: std::collections::BTreeMap::new(),
    };
    println!(
        "strategy: {} (change with `strategy CA|BL|PL|BL-S|PL-S`)",
        shell.strategy_name
    );
    if shell.transport != TransportMode::Off {
        println!(
            "transport: {} (distributed site-actor runtime)",
            shell.transport_name()
        );
    }
    println!("type `help` for commands, `quit` to exit\n");

    let stdin = io::stdin();
    loop {
        print!("fedoq> ");
        io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match shell.dispatch(line) {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}

impl Shell {
    /// Handles one input line; returns `Ok(true)` to exit.
    fn dispatch(&mut self, line: &str) -> Result<bool, Box<dyn std::error::Error>> {
        // Accept a leading `:` on commands (`:transport sim`) for
        // readers used to REPL-style prefixes.
        let line = line.strip_prefix(':').unwrap_or(line);
        let mut words = line.split_whitespace();
        match words.next().map(str::to_ascii_lowercase).as_deref() {
            Some("quit") | Some("exit") => return Ok(true),
            Some("help") => self.help(),
            Some("schema") => self.schema(),
            Some("dbs") => self.dbs(),
            Some("goids") => match words.next() {
                Some(class) => self.goids(class),
                None => println!("usage: goids <GlobalClass>"),
            },
            Some("plan") => {
                let sql = line[4..].trim();
                if sql.is_empty() {
                    println!("usage: plan SELECT ...");
                } else {
                    self.plan(sql)?;
                }
            }
            Some("explain") => {
                let sql = line[7..].trim();
                if sql.is_empty() {
                    println!("usage: explain SELECT ...");
                } else {
                    let bound = self.fed.parse_and_bind(sql)?;
                    print!(
                        "{}",
                        explain_with_pipeline(&self.fed, &bound, self.pipeline)
                    );
                }
            }
            Some("timeline") => match &self.last_ledger {
                Some(ledger) => {
                    print!(
                        "{}",
                        fedoq::sim::timeline::render(ledger, self.fed.num_dbs())
                    );
                }
                None => println!("run a query first"),
            },
            Some("save") => match words.next() {
                Some(dir) => {
                    self.fed.save_to_dir(std::path::Path::new(dir))?;
                    println!("saved {} database(s) under {dir}", self.fed.num_dbs());
                }
                None => println!("usage: save <dir>"),
            },
            Some("load") => match words.next() {
                Some(dir) => {
                    self.fed = Federation::load_from_dir(
                        std::path::Path::new(dir),
                        &Correspondences::new(),
                    )?;
                    self.catalog = None; // stats described the old federation
                    if self.live.is_some() {
                        self.live = None;
                        self.watches.clear();
                        println!("(standing watches dropped: federation replaced)");
                    }
                    println!("loaded: {}", self.fed);
                }
                None => println!("usage: load <dir>"),
            },
            Some("strategy") => match words.next() {
                Some(name) if DistributedStrategy::parse(name).is_some() => {
                    self.strategy_name = name.to_ascii_uppercase();
                    println!("strategy set to {}", self.strategy_name);
                }
                _ => println!("usage: strategy CA|BL|PL|BL-S|PL-S"),
            },
            Some("check") => {
                let rest = line[5..].trim();
                match rest.split_whitespace().next() {
                    None => println!("usage: check SELECT ... | check wire | check concurrency"),
                    Some(word) if word.eq_ignore_ascii_case("wire") => self.check_wire(),
                    Some(word) if word.eq_ignore_ascii_case("concurrency") => {
                        self.check_concurrency();
                    }
                    Some(_) => {
                        let bound = self.fed.parse_and_bind(rest)?;
                        for report in fedoq::check::analyze_all(&bound, self.fed.global_schema()) {
                            print!("{report}");
                        }
                    }
                }
            }
            Some("watch") => {
                let rest = line[5..].trim();
                if rest.is_empty() {
                    println!("usage: watch [ca|bl|pl|hy] SELECT ...");
                } else {
                    self.cmd_watch(rest);
                }
            }
            Some("watches") => self.cmd_watches(),
            Some("unwatch") => match words.next() {
                Some(id) => self.cmd_unwatch(id),
                None => println!("usage: unwatch <id>"),
            },
            Some("mutate") => {
                let rest = line[6..].trim();
                if rest.is_empty() {
                    println!("usage: mutate <site> insert <Class> <a>=<v>,.. | update <Class> where .. set ..");
                } else {
                    self.cmd_mutate(rest);
                }
            }
            Some("adaptive") => self.cmd_adaptive(&mut words),
            Some("stats") => self.cmd_stats(&mut words),
            Some("transport") => self.cmd_transport(&mut words),
            Some("connect") => self.cmd_connect(&mut words),
            Some("faults") => self.cmd_faults(&mut words),
            Some("partition") => self.cmd_partition(&mut words),
            Some("parallel") => self.cmd_parallel(&mut words),
            Some("batch") => self.cmd_batch(&mut words),
            Some("cache") => self.cmd_cache(&mut words),
            Some("cachestats") => self.cmd_cachestats(),
            Some("select") => self.query(line)?,
            _ => println!("unrecognized input; type `help`"),
        }
        Ok(false)
    }

    fn help(&self) {
        println!(
            "commands:\n  SELECT ...              run a query (AND/OR predicates supported)\n  plan SELECT ...         per-site local queries + ranked plan costs\n  explain SELECT ...      show the full execution plan\n  check SELECT ...        statically lint the plans (fedoq-check)\n  check wire              audit the TCP codec surface (FQ304-FQ306)\n  check concurrency       schedule-explore the serving layer (FQ300-FQ303)\n  watch [ca|bl|pl|hy] SELECT ...   register a standing query (prints the snapshot)\n  watches                 list standing queries\n  unwatch <id>            drop a standing query\n  mutate <site> insert <Class> <a>=<v>,..   insert; deltas print per watch\n  mutate <site> update <Class> where .. set ..   in-place update\n  adaptive on|off         let the cost-based planner pick each SELECT's strategy\n  stats [refresh]         show / re-scan the planner's statistics catalog\n  schema                  show the integrated global schema\n  dbs                     show the component databases\n  goids <Class>           show a class's GOid mapping table\n  strategy CA|BL|PL|BL-S|PL-S   choose the execution strategy\n  transport off|local|sim [seed] run queries in-process or distributed\n  connect <host:port>     dial a fedoq-serve frontend (switches to `transport tcp`)\n  faults [drop <p>] [latency <us>] [crash <db>] [clear]  sim-net faults\n  partition <a> <b> | partition clear    cut links (sites: DB names or `global`)\n  parallel on|off [threads]   chunked parallel extent scans (default 8 threads)\n  batch <K>               coalesce up to K lookup probes per message (0 = off)\n  cache on|off            shared GOid-lookup cache (warm across queries)\n  cachestats              lookup-cache hit/miss/eviction counters\n  timeline                per-site Gantt chart of the last query\n  save <dir> / load <dir> persist / restore the federation\n  quit                    exit"
        );
    }

    fn transport_name(&self) -> &'static str {
        match self.transport {
            TransportMode::Off => "off",
            TransportMode::Local => "local",
            TransportMode::Sim => "sim",
            TransportMode::Tcp => "tcp",
        }
    }

    fn site_name(&self, site: Site) -> String {
        match site {
            Site::Global => "global".to_owned(),
            Site::Db(db) => self.fed.db(db).name().to_owned(),
        }
    }

    /// Parses a site name: a component DB name (`DB2`), a zero-based
    /// index, or `global`.
    fn parse_site(&self, word: &str) -> Option<Site> {
        if word.eq_ignore_ascii_case("global") {
            return Some(Site::Global);
        }
        for db in self.fed.dbs() {
            if db.name().eq_ignore_ascii_case(word) {
                return Some(Site::Db(db.id()));
            }
        }
        word.parse::<u16>()
            .ok()
            .and_then(|i| ((i as usize) < self.fed.num_dbs()).then(|| Site::Db(DbId::new(i))))
    }

    fn cmd_transport<'w>(&mut self, words: &mut impl Iterator<Item = &'w str>) {
        match words.next() {
            None => println!("transport: {}", self.transport_name()),
            Some("off") => {
                self.transport = TransportMode::Off;
                println!("transport off: queries run in-process");
            }
            Some("local") => {
                self.transport = TransportMode::Local;
                println!("transport local: distributed runtime, instant lossless delivery");
            }
            Some("sim") => {
                self.transport = TransportMode::Sim;
                if let Some(seed) = words.next().and_then(|w| w.parse().ok()) {
                    self.faults.seed = seed;
                }
                println!(
                    "transport sim: simulated network, seed {} (tune with `faults`, `partition`)",
                    self.faults.seed
                );
            }
            Some("tcp") => match words.next() {
                Some(addr) => self.connect(addr),
                None if self.wire.is_some() => {
                    self.transport = TransportMode::Tcp;
                    println!("transport tcp: reusing the open fedoq-serve connection");
                }
                None => println!("usage: transport tcp <host:port> (or `connect <host:port>`)"),
            },
            Some(other) => {
                println!("unknown transport {other:?}; use off|local|sim [seed]|tcp <addr>");
            }
        }
    }

    fn cmd_connect<'w>(&mut self, words: &mut impl Iterator<Item = &'w str>) {
        match words.next() {
            Some(addr) => self.connect(addr),
            None => println!("usage: connect <host:port>   (a running fedoq-serve frontend)"),
        }
    }

    /// Dials a `fedoq-serve` frontend and switches to `transport tcp`.
    fn connect(&mut self, addr: &str) {
        match fedoq_wire::WireClient::connect(addr) {
            Ok(client) => {
                self.wire = Some(client);
                self.transport = TransportMode::Tcp;
                println!(
                    "connected to fedoq-serve at {addr}; SELECTs now run over TCP \
                     (strategy {}, `adaptive on` for the planner)",
                    self.strategy_name
                );
            }
            Err(e) => println!("could not connect to {addr}: {e}"),
        }
    }

    /// Runs one query against the connected `fedoq-serve` frontend.
    fn query_wire(&mut self, sql: &str) {
        let Some(client) = self.wire.as_mut() else {
            println!("transport tcp needs a connection; use `connect <host:port>`");
            return;
        };
        let strategy = if self.adaptive {
            "adaptive".to_owned()
        } else {
            self.strategy_name.to_ascii_lowercase()
        };
        match client.query(sql, &strategy) {
            Ok(Ok(answer)) => {
                // Rows arrive pre-rendered: `C <row>` / `M <row>`.
                for row in &answer.rows {
                    match row.split_once(' ') {
                        Some(("C", rest)) => println!("certain  {rest}"),
                        Some(("M", rest)) => println!("maybe    {rest}"),
                        _ => println!("{row}"),
                    }
                }
                if answer.rows.is_empty() {
                    println!("(no results)");
                }
                if !answer.degraded_sites.is_empty() {
                    let lost: Vec<String> = answer
                        .degraded_sites
                        .iter()
                        .map(|db| self.fed.db(DbId::new(*db)).name().to_owned())
                        .collect();
                    println!(
                        "!! unreachable sites: {} — maybe rows above may be degraded",
                        lost.join(", ")
                    );
                }
                println!(
                    "-- via {} over tcp: {} forwarded, {} lost, {} retries, {:.0} µs at the server",
                    answer.executed,
                    answer.forwarded,
                    answer.lost,
                    answer.retries,
                    answer.server_us,
                );
            }
            Ok(Err(e)) => println!("server error: {e}"),
            Err(e) => {
                println!("connection lost: {e} (reconnect with `connect <host:port>`)");
                self.wire = None;
            }
        }
    }

    fn cmd_faults<'w>(&mut self, words: &mut impl Iterator<Item = &'w str>) {
        let mut changed = false;
        let mut words = words.peekable();
        while let Some(word) = words.next() {
            changed = true;
            match word {
                "drop" => match words.next().and_then(|w| w.parse::<f64>().ok()) {
                    Some(p) if (0.0..=1.0).contains(&p) => self.faults.drop_rate = p,
                    _ => println!("usage: faults drop <probability 0..1>"),
                },
                "latency" => match words.next().and_then(|w| w.parse::<f64>().ok()) {
                    Some(us) if us >= 0.0 => self.faults.latency_us = us,
                    _ => println!("usage: faults latency <microseconds>"),
                },
                "crash" => match words.next().and_then(|w| self.parse_site(w)) {
                    Some(site) => self.faults.crashed.push(site),
                    None => println!("usage: faults crash <db|global>"),
                },
                "clear" => {
                    self.faults = FaultPlan {
                        seed: self.faults.seed,
                        ..Default::default()
                    }
                }
                other => println!("unknown fault knob {other:?}; see `help`"),
            }
        }
        let crashed: Vec<String> = self
            .faults
            .crashed
            .iter()
            .map(|s| self.site_name(*s))
            .collect();
        println!(
            "faults{}: seed {}, drop {}, latency {} µs, {} partition(s), crashed [{}]",
            if changed { " set" } else { "" },
            self.faults.seed,
            self.faults.drop_rate,
            self.faults.latency_us,
            self.faults.partitions.len(),
            crashed.join(", "),
        );
        if self.transport != TransportMode::Sim {
            println!("(faults apply once `transport sim` is active)");
        }
    }

    fn cmd_partition<'w>(&mut self, words: &mut impl Iterator<Item = &'w str>) {
        match (words.next(), words.next()) {
            (Some("clear"), _) => {
                self.faults.partitions.clear();
                println!("partitions healed");
            }
            (Some(a), Some(b)) => match (self.parse_site(a), self.parse_site(b)) {
                (Some(sa), Some(sb)) if sa != sb => {
                    self.faults.partitions.push((sa, sb));
                    println!(
                        "partitioned {} from {} (heal with `partition clear`)",
                        self.site_name(sa),
                        self.site_name(sb)
                    );
                }
                _ => println!("unknown site pair {a:?} {b:?}"),
            },
            _ => println!("usage: partition <site> <site> | partition clear"),
        }
    }

    /// One-line summary of the pipeline tuning in force.
    fn pipeline_summary(&self) -> String {
        format!(
            "parallel {} ({} thread(s)), batch {}, cache {}",
            if self.pipeline.is_parallel() {
                "on"
            } else {
                "off"
            },
            self.pipeline.threads,
            if self.pipeline.batch == 0 {
                "off".to_owned()
            } else {
                self.pipeline.batch.to_string()
            },
            if self.pipeline.cache { "on" } else { "off" },
        )
    }

    /// Applies a pipeline change to the persistent executor (its clone
    /// shares the lookup cache, so tuning never drops warm entries).
    fn apply_pipeline(&mut self) {
        self.executor = self.executor.clone().with_pipeline(self.pipeline);
        println!("pipeline: {}", self.pipeline_summary());
    }

    fn cmd_parallel<'w>(&mut self, words: &mut impl Iterator<Item = &'w str>) {
        match words.next() {
            Some("on") => {
                let threads: usize = words.next().and_then(|w| w.parse().ok()).unwrap_or(8);
                self.pipeline.threads = threads.max(2);
                self.apply_pipeline();
            }
            Some("off") => {
                self.pipeline.threads = 1;
                self.apply_pipeline();
            }
            None => println!("pipeline: {}", self.pipeline_summary()),
            Some(other) => println!("unknown mode {other:?}; usage: parallel on|off [threads]"),
        }
    }

    fn cmd_batch<'w>(&mut self, words: &mut impl Iterator<Item = &'w str>) {
        match words.next().and_then(|w| w.parse::<usize>().ok()) {
            Some(k) => {
                self.pipeline = self.pipeline.with_batch(k);
                self.apply_pipeline();
            }
            None => println!("usage: batch <K>   (0 turns batching off)"),
        }
    }

    fn cmd_cache<'w>(&mut self, words: &mut impl Iterator<Item = &'w str>) {
        match words.next() {
            Some("on") => {
                self.pipeline.cache = true;
                self.apply_pipeline();
            }
            Some("off") => {
                self.pipeline.cache = false;
                self.apply_pipeline();
            }
            None => println!("pipeline: {}", self.pipeline_summary()),
            Some(other) => println!("unknown mode {other:?}; usage: cache on|off"),
        }
    }

    fn cmd_cachestats(&self) {
        // The in-process strategies and the distributed executor keep
        // separate caches; show the one the current transport uses.
        let (stats, entries) = if self.transport == TransportMode::Off {
            (
                self.local_cache.borrow().stats(),
                self.local_cache.borrow().len(),
            )
        } else {
            (self.executor.cache_stats(), self.executor.cache_len())
        };
        println!(
            "lookup cache ({} transport): {} entries, {} hits, {} misses ({:.1}% hit rate), \
             {} evictions, {} invalidations",
            self.transport_name(),
            entries,
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.evictions,
            stats.invalidations,
        );
        if !self.pipeline.cache {
            println!("(caching is off; enable with `cache on`)");
        }
    }

    /// `check wire` — audits the TCP codec surface with the FQ304–FQ306
    /// lints (tag exhaustiveness, size/depth bounds, version skew).
    fn check_wire(&self) {
        let surface = fedoq_wire::surface();
        println!(
            "wire codec: version {}, grammar {:#018x}, {} tag families",
            surface.version,
            surface.fingerprint,
            surface.families.len()
        );
        let mut report = fedoq::check::Report::new("wire codec surface", String::new());
        fedoq::check::analyze_wire(&surface, &mut report);
        if report.diagnostics.is_empty() {
            println!("clean: FQ304-FQ306 found nothing");
        } else {
            print!("{report}");
        }
    }

    /// `check concurrency` — schedule-explores the TCP serving layer in
    /// this process and reports FQ300–FQ303 findings.
    fn check_concurrency(&self) {
        println!("schedule-exploring the TCP serving layer (this takes a few seconds)...");
        let outcome = fedoq::check::explore_serving(&fedoq::check::ExploreOpts::default());
        println!(
            "explored {} schedules ({} distinct interleavings)",
            outcome.schedules_run, outcome.distinct_schedules
        );
        if outcome.report.diagnostics.is_empty() {
            println!("clean: FQ300-FQ303 found nothing");
        } else {
            print!("{}", outcome.report);
        }
    }

    /// The live strategy `watch` uses when none is named: the shell's
    /// SELECT strategy, with the signature variants mapped to their
    /// plain forms (the reactor re-evaluates, it never certifies).
    fn default_live_strategy(&self) -> LiveStrategy {
        match self.strategy_name.as_str() {
            "CA" => LiveStrategy::CA,
            "PL" | "PL-S" => LiveStrategy::PL,
            _ => LiveStrategy::BL,
        }
    }

    /// `watch [ca|bl|pl|hy] SELECT ...` — registers a standing query.
    ///
    /// Over `transport tcp` the watch lives in the server's session for
    /// this connection; otherwise a local [`LiveReactor`] over a copy of
    /// the federation maintains it (see [`Shell::cmd_mutate`]).
    fn cmd_watch(&mut self, rest: &str) {
        let (strategy, sql) = match rest.split_once(char::is_whitespace) {
            Some((first, tail)) => match LiveStrategy::parse(first) {
                Some(s) => (s, tail.trim()),
                None => (self.default_live_strategy(), rest),
            },
            None => (self.default_live_strategy(), rest),
        };
        if self.transport == TransportMode::Tcp {
            let Some(client) = self.wire.as_mut() else {
                println!("transport tcp needs a connection; use `connect <host:port>`");
                return;
            };
            match client.subscribe(sql, &strategy.label().to_ascii_lowercase(), 5) {
                Ok((watch, Ok(rows))) => {
                    for row in &rows {
                        println!("  {row}");
                    }
                    println!(
                        "watching w{watch} via {} over tcp ({} row(s); deltas arrive with `mutate`)",
                        strategy.label(),
                        rows.len()
                    );
                    self.wire_watches.insert(watch, sql.to_owned());
                }
                Ok((_, Err(e))) => println!("server refused the watch: {e}"),
                Err(e) => {
                    println!("connection lost: {e} (reconnect with `connect <host:port>`)");
                    self.wire = None;
                }
            }
            return;
        }
        if self.live.is_none() {
            self.live = Some(LiveReactor::new(self.fed.clone()));
        }
        let reactor = self.live.as_mut().expect("reactor just ensured");
        match reactor.register(sql, strategy, 5) {
            Ok(reg) => {
                if let Some(LiveEvent::Initial { answer, .. }) = reg.events.try_recv() {
                    for line in fedoq::live::render_conditioned(&answer) {
                        println!("  {line}");
                    }
                }
                println!(
                    "watching {} via {}{} (resolve rows with `mutate`, drop with `unwatch {}`)",
                    reg.sub,
                    strategy.label(),
                    if reg.admitted { "" } else { " [queued]" },
                    reg.sub.raw()
                );
                self.watches.insert(
                    reg.sub.raw(),
                    LocalWatch {
                        sub: reg.sub,
                        strategy,
                        sql: sql.to_owned(),
                        events: reg.events,
                    },
                );
            }
            Err(e) => println!("watch error: {e}"),
        }
    }

    /// `watches` — lists the standing queries on both transports.
    fn cmd_watches(&self) {
        for (id, watch) in &self.watches {
            println!("w{id} [{}] {}", watch.strategy.label(), watch.sql);
        }
        for (id, sql) in &self.wire_watches {
            println!("w{id} [tcp] {sql}");
        }
        if self.watches.is_empty() && self.wire_watches.is_empty() {
            println!("(no standing watches; start one with `watch SELECT ...`)");
        }
    }

    /// `unwatch <id>` — drops a standing query by id (`w3` or `3`).
    fn cmd_unwatch(&mut self, word: &str) {
        let Ok(id) = word.trim_start_matches(['w', 'W']).parse::<u64>() else {
            println!("usage: unwatch <id>   (ids are listed by `watches`)");
            return;
        };
        if let Some(watch) = self.watches.remove(&id) {
            if let Some(reactor) = self.live.as_mut() {
                reactor.unsubscribe(watch.sub);
            }
            println!("unwatched w{id}");
            return;
        }
        if self.wire_watches.remove(&id).is_some() {
            if let Some(client) = self.wire.as_mut() {
                match client.unsubscribe(id) {
                    Ok(()) => println!("unwatched w{id} (tcp)"),
                    Err(e) => {
                        println!("connection lost: {e}");
                        self.wire = None;
                    }
                }
            } else {
                println!("unwatched w{id} (connection already closed)");
            }
            return;
        }
        println!("no watch w{id}; see `watches`");
    }

    /// `mutate <site> <spec>` — applies an insert/update and reports the
    /// deltas it triggered on every standing watch.
    ///
    /// Locally the change is applied to **both** the shell's federation
    /// and the reactor's copy, so queries and watches keep describing
    /// the same data. Over `transport tcp` the mutation runs in the
    /// server's per-connection session instead.
    fn cmd_mutate(&mut self, rest: &str) {
        let Some((site_word, spec)) = rest.split_once(char::is_whitespace) else {
            println!(
                "usage: mutate <site> insert <Class> <a>=<v>,.. | update <Class> where .. set .."
            );
            return;
        };
        let spec = spec.trim();
        if self.transport == TransportMode::Tcp {
            let Some(client) = self.wire.as_mut() else {
                println!("transport tcp needs a connection; use `connect <host:port>`");
                return;
            };
            let Ok(db) = site_word.parse::<u16>() else {
                println!("over tcp, name the site by index (the server has its own workload)");
                return;
            };
            match client.mutate(db, spec) {
                Ok((Ok(answer), deltas)) => {
                    for row in &answer.rows {
                        println!("{row}");
                    }
                    for event in deltas {
                        match event.reply {
                            Ok(lines) => {
                                for line in lines {
                                    println!("  w{} #{}: {line}", event.watch, event.seq);
                                }
                            }
                            Err(e) => println!("  w{} error: {e}", event.watch),
                        }
                    }
                }
                Ok((Err(e), _)) => println!("server error: {e}"),
                Err(e) => {
                    println!("connection lost: {e} (reconnect with `connect <host:port>`)");
                    self.wire = None;
                }
            }
            return;
        }
        let Some(Site::Db(db)) = self.parse_site(site_word) else {
            println!("unknown component site {site_word:?}; mutations target a DB, not `global`");
            return;
        };
        let mutation = match fedoq_wire::parse_mutation(spec) {
            Ok(m) => m,
            Err(e) => {
                println!("bad mutation: {e}");
                return;
            }
        };
        // Apply to the shell's own federation first: a failure here
        // leaves both copies untouched.
        let summary = match self
            .fed
            .mutate(db, |store| fedoq_wire::apply_mutation(store, &mutation))
        {
            Ok(summary) => summary,
            Err(e) => {
                println!("mutation failed: {e}");
                return;
            }
        };
        self.catalog = None; // stats described the pre-mutation extents
        println!("{summary} at {}", self.fed.db(db).name());
        let Some(reactor) = self.live.as_mut() else {
            return;
        };
        match reactor.mutate(db, |store| fedoq_wire::apply_mutation(store, &mutation)) {
            Ok((_, outcome)) => {
                println!(
                    "-- {} watch(es) re-evaluated, {} delta(s)",
                    outcome.affected, outcome.deltas
                );
                self.drain_watches();
            }
            Err(e) => println!("reactor error: {e} (watches may be stale)"),
        }
    }

    /// Prints every pending delta batch on every local watch.
    fn drain_watches(&mut self) {
        for (id, watch) in &self.watches {
            while let Some(event) = watch.events.try_recv() {
                match event {
                    LiveEvent::Initial { answer, .. } => {
                        for line in fedoq::live::render_conditioned(&answer) {
                            println!("  w{id}: {line}");
                        }
                    }
                    LiveEvent::Deltas { seq, deltas } => {
                        for delta in &deltas {
                            println!("  w{id} #{seq}: {delta}");
                        }
                    }
                }
            }
        }
    }

    fn schema(&self) {
        for (_, class) in self.fed.global_schema().iter() {
            let attrs: Vec<&str> = class.attrs().iter().map(GlobalAttr::name).collect();
            println!("{}({})", class.name(), attrs.join(", "));
            for constituent in class.constituents() {
                let missing: Vec<&str> = constituent
                    .missing_attrs()
                    .map(|g| class.attr(g).name())
                    .collect();
                let db = self.fed.db(constituent.db());
                if missing.is_empty() {
                    println!("  {}: complete", db.name());
                } else {
                    println!("  {}: missing {}", db.name(), missing.join(", "));
                }
            }
        }
    }

    fn dbs(&self) {
        for db in self.fed.dbs() {
            println!("{db}");
        }
    }

    fn goids(&self, class_name: &str) {
        let Some(class_id) = self.fed.global_schema().class_id(class_name) else {
            println!("unknown global class {class_name:?}");
            return;
        };
        let table = self.fed.catalog().table(class_id);
        let mut entries: Vec<(GOid, Vec<LOid>)> =
            table.iter().map(|(g, ls)| (g, ls.to_vec())).collect();
        entries.sort();
        for (g, loids) in entries {
            let copies: Vec<String> = loids.iter().map(ToString::to_string).collect();
            println!("{g} = {{{}}}", copies.join(", "));
        }
    }

    fn plan(&mut self, sql: &str) -> Result<(), Box<dyn std::error::Error>> {
        let bound = self.fed.parse_and_bind(sql)?;
        for db in self.fed.dbs() {
            match plan_for_db(&bound, self.fed.global_schema(), db.id()) {
                Some(plan) => println!("{}", plan.describe(&bound)),
                None => println!("-- {} hosts no constituent of the range class", db.name()),
            }
        }
        self.ensure_catalog();
        let catalog = self.catalog.as_ref().expect("catalog just ensured");
        // `plan` deliberately prices against the catalog as-is so a
        // stale one surfaces as FQ106 rather than silently refreshing;
        // `stats refresh` (or an adaptive run) brings it up to date.
        let staleness =
            fedoq::check::analyze_staleness("plan", catalog.generation(), self.fed.generation());
        if staleness.fired("FQ106") {
            print!("{staleness}");
        }
        let knobs = self.plan_knobs();
        let choice = choose(
            catalog,
            self.fed.global_schema(),
            &bound,
            &knobs,
            query_fingerprint(&bound),
            true,
        );
        print!("{choice}");
        Ok(())
    }

    /// The cost-model knobs matching the shell's pipeline tuning, with
    /// cache warmth read from whichever cache the transport uses.
    fn plan_knobs(&self) -> fedoq::plan::PipelineKnobs {
        if self.transport == TransportMode::Off {
            plan_knobs(self.pipeline, Some(&self.local_cache))
        } else {
            self.executor.knobs()
        }
    }

    /// Scans the statistics catalog on first use.
    fn ensure_catalog(&mut self) {
        if self.catalog.is_none() {
            let catalog = collect_catalog(&self.fed, SystemParams::paper_default());
            println!(
                "scanned statistics catalog: {} site(s) @ generation {}",
                catalog.sites().len(),
                catalog.generation()
            );
            self.catalog = Some(catalog);
        }
    }

    fn cmd_adaptive<'w>(&mut self, words: &mut impl Iterator<Item = &'w str>) {
        match words.next() {
            Some("on") => {
                self.adaptive = true;
                self.ensure_catalog();
                println!(
                    "adaptive on: each SELECT runs the planner's cheapest plan \
                     (inspect with `plan`, `stats`)"
                );
            }
            Some("off") => {
                self.adaptive = false;
                println!(
                    "adaptive off: SELECT uses `strategy {}`",
                    self.strategy_name
                );
            }
            None => println!("adaptive: {}", if self.adaptive { "on" } else { "off" }),
            Some(other) => println!("unknown mode {other:?}; usage: adaptive on|off"),
        }
    }

    fn cmd_stats<'w>(&mut self, words: &mut impl Iterator<Item = &'w str>) {
        match words.next() {
            None => {
                self.ensure_catalog();
                let catalog = self.catalog.as_ref().expect("catalog just ensured");
                print!("{}", catalog.summary());
                if catalog.is_stale(self.fed.generation()) {
                    println!(
                        "(stale: federation is at generation {}; `stats refresh` re-scans)",
                        self.fed.generation()
                    );
                }
            }
            Some("refresh") => match self.catalog.as_mut() {
                Some(catalog) if catalog.is_stale(self.fed.generation()) => {
                    refresh_catalog(catalog, &self.fed);
                    println!(
                        "catalog re-scanned @ generation {} ({} observation(s) kept)",
                        catalog.generation(),
                        catalog.observed_len()
                    );
                }
                Some(catalog) => {
                    println!(
                        "catalog already fresh (generation {})",
                        catalog.generation()
                    );
                }
                None => self.ensure_catalog(),
            },
            Some(other) => println!("unknown subcommand {other:?}; usage: stats [refresh]"),
        }
    }

    /// The configured fixed strategy's plan.
    fn fixed_plan(&self) -> ExecPlan {
        DistributedStrategy::parse(&self.strategy_name)
            .expect("configured strategy is valid")
            .plan()
    }

    fn query(&mut self, sql: &str) -> Result<(), Box<dyn std::error::Error>> {
        if self.transport == TransportMode::Tcp {
            self.query_wire(sql);
            return Ok(());
        }
        if self.transport != TransportMode::Off {
            return self.query_distributed(sql);
        }
        // Adaptive planning covers conjunctive queries; disjunctive
        // ones fall through to the configured fixed strategy.
        if self.adaptive {
            if let Ok(bound) = self.fed.parse_and_bind(sql) {
                return self.query_adaptive(&bound);
            }
            println!("(adaptive planning applies to conjunctive queries; running fixed strategy)");
        }
        // A tuned pipeline runs conjunctive queries through the
        // parallel/batched/cached path; disjunctive queries (and the
        // default pipeline) take the legacy sequential path.
        if self.pipeline != PipelineConfig::default() {
            if let Ok(bound) = self.fed.parse_and_bind(sql) {
                return self.query_pipelined(&bound);
            }
            println!("(pipeline tuning applies to conjunctive queries; running sequentially)");
        }
        let dnf = parse_dnf(sql)?;
        let mut sim = Simulation::new(SystemParams::paper_default(), self.fed.num_dbs());
        let answer = run_disjunctive(&self.fixed_plan(), &self.fed, &dnf, &mut sim)?;
        for row in answer.certain() {
            println!("certain  {row}");
        }
        for row in answer.maybe() {
            let unsolved: Vec<String> = row.unsolved().map(|p| p.to_string()).collect();
            println!("maybe    {}  [unsolved: {}]", row.row(), unsolved.join(","));
        }
        if answer.is_empty() {
            println!("(no results)");
        }
        println!(
            "-- {} via {}: {}",
            answer,
            self.strategy_name,
            sim.metrics()
        );
        self.last_ledger = Some(sim.ledger().clone());
        Ok(())
    }

    /// Runs one conjunctive query in-process under the tuned pipeline,
    /// sharing the shell's persistent lookup cache across queries.
    fn query_pipelined(&mut self, query: &BoundQuery) -> Result<(), Box<dyn std::error::Error>> {
        if self.pipeline.cache {
            self.local_cache
                .borrow_mut()
                .sync_generation(self.fed.generation());
        }
        let cache = self.pipeline.cache.then_some(&self.local_cache);
        let mut sim = Simulation::new(SystemParams::paper_default(), self.fed.num_dbs());
        let answer =
            self.fixed_plan()
                .execute_with(&self.fed, query, &mut sim, self.pipeline, cache)?;
        for row in answer.certain() {
            println!("certain  {row}");
        }
        for row in answer.maybe() {
            let unsolved: Vec<String> = row.unsolved().map(|p| p.to_string()).collect();
            println!("maybe    {}  [unsolved: {}]", row.row(), unsolved.join(","));
        }
        if answer.is_empty() {
            println!("(no results)");
        }
        println!(
            "-- {} via {} [{}]: {}",
            answer,
            self.strategy_name,
            self.pipeline_summary(),
            sim.metrics()
        );
        self.last_ledger = Some(sim.ledger().clone());
        Ok(())
    }

    /// Runs one conjunctive query through the cost-based planner: the
    /// catalog ranks CA/BL/PL/HY, the winner executes, and the measured
    /// response feeds the EWMA loop for next time.
    fn query_adaptive(&mut self, query: &BoundQuery) -> Result<(), Box<dyn std::error::Error>> {
        self.ensure_catalog();
        let catalog = self.catalog.as_mut().expect("catalog just ensured");
        let cache = self.pipeline.cache.then_some(&self.local_cache);
        let outcome = run_adaptive(&self.fed, query, catalog, self.pipeline, cache)?;
        for row in outcome.answer.certain() {
            println!("certain  {row}");
        }
        for row in outcome.answer.maybe() {
            let unsolved: Vec<String> = row.unsolved().map(|p| p.to_string()).collect();
            println!("maybe    {}  [unsolved: {}]", row.row(), unsolved.join(","));
        }
        if outcome.answer.is_empty() {
            println!("(no results)");
        }
        let best = outcome.choice.best();
        println!(
            "-- {} via adaptive {} (scored {:.0} µs over {} candidate(s)): {}",
            outcome.answer,
            outcome.executed.label(),
            best.score_us,
            outcome.choice.ranked.len(),
            outcome.metrics
        );
        Ok(())
    }

    /// Runs one conjunctive query over the distributed actor runtime.
    fn query_distributed(&mut self, sql: &str) -> Result<(), Box<dyn std::error::Error>> {
        let strategy = if self.adaptive {
            None // the planner picks one per query
        } else {
            match DistributedStrategy::parse(&self.strategy_name) {
                Some(s) => Some(s),
                None => {
                    println!(
                        "strategy {} is not available distributed",
                        self.strategy_name
                    );
                    return Ok(());
                }
            }
        };
        let query = self.fed.parse_and_bind(sql)?;
        let sim = Rc::new(RefCell::new(Simulation::new(
            SystemParams::paper_default(),
            self.fed.num_dbs(),
        )));
        let transport: Rc<RefCell<dyn Transport>> = match self.transport {
            TransportMode::Local => Rc::new(RefCell::new(LocalTransport::new())),
            _ => {
                let mut t = SimTransport::new(Rc::clone(&sim), self.faults.seed)
                    .with_latency_us(self.faults.latency_us)
                    .with_drop_rate(self.faults.drop_rate);
                for &(a, b) in &self.faults.partitions {
                    t.inject(FaultEvent::Partition(a, b));
                }
                for &site in &self.faults.crashed {
                    t.inject(FaultEvent::Crash(site));
                }
                Rc::new(RefCell::new(t))
            }
        };
        let (outcome, via) = match strategy {
            Some(strategy) => {
                let outcome =
                    self.executor
                        .run(&self.fed, &query, strategy, transport, Rc::clone(&sim))?;
                (outcome, strategy.name().to_owned())
            }
            None => {
                self.ensure_catalog();
                let catalog = self.catalog.as_mut().expect("catalog just ensured");
                let adaptive = self.executor.run_adaptive(
                    &self.fed,
                    &query,
                    catalog,
                    transport,
                    Rc::clone(&sim),
                )?;
                let via = format!(
                    "adaptive {} (scored {:.0} µs over {} candidate(s))",
                    adaptive.executed.label(),
                    adaptive.choice.best().score_us,
                    adaptive.choice.ranked.len()
                );
                (adaptive.outcome, via)
            }
        };
        for row in outcome.answer.certain() {
            println!("certain  {row}");
        }
        for row in outcome.answer.maybe() {
            println!("maybe    {row}");
        }
        if outcome.answer.is_empty() {
            println!("(no results)");
        }
        if !outcome.degraded_sites.is_empty() {
            let lost: Vec<&str> = outcome
                .degraded_sites
                .iter()
                .map(|d| self.fed.db(*d).name())
                .collect();
            println!(
                "!! unreachable sites: {} — maybe rows above may be degraded",
                lost.join(", ")
            );
        }
        println!(
            "-- {} via {} over {} transport: {} | {} delivered, {} dropped, {} retries, {:.0} µs virtual",
            outcome.answer,
            via,
            self.transport_name(),
            outcome.metrics,
            outcome.delivered,
            outcome.dropped,
            outcome.retries,
            outcome.virtual_us,
        );
        self.last_ledger = Some(sim.borrow().ledger().clone());
        Ok(())
    }
}
