//! The chaos suite: concurrent load against a server with real fault
//! injection compiled in (the self-dev-dependency turns the `faults`
//! feature on for this target).
//!
//! The CI chaos leg runs this with `PM_FAULTS=panic:0.05,delay:10ms` in the
//! environment; locally it falls back to a built-in spec of the same shape,
//! so `cargo test -p pm_serve` exercises injection either way.  The
//! invariants pinned here are the PR's acceptance bar:
//!
//! * no deadlock — every accepted request gets exactly one answer;
//! * no corrupted matchings — every [`Quality::Full`] response passes the
//!   §2 popularity characterization, every degraded response is a valid
//!   assignment and is *flagged* degraded;
//! * expired requests are shed, never solved;
//! * after `K` consecutive failures the server degrades instead of
//!   erroring, and recovers once injection stops.

use std::sync::Arc;
use std::time::Duration;

use pm_instances::generators::{self, GeneratorConfig};
use pm_popular::delta::{Delta, DeltaMode, DeltaSolver};
use pm_popular::{is_popular_characterization, PrefInstance};
use pm_serve::degrade::serial_dictatorship;
use pm_serve::faults::Spec;
use pm_serve::{DeltaRequest, Quality, Request, ServeError, Server, ServerConfig, SolveMode};

fn gen(n: usize, seed: u64) -> Arc<PrefInstance> {
    Arc::new(generators::solvable(&GeneratorConfig {
        num_applicants: n,
        num_posts: n + n / 8 + 1,
        list_len: 4,
        seed,
    }))
}

/// The environment's spec when `PM_FAULTS` is set (the CI chaos leg), a
/// built-in chaotic default otherwise.  Returns whether panics are part of
/// the mix, which gates the "panics actually happened" assertion.
fn chaos_spec() -> (Spec, bool) {
    assert!(
        Spec::compiled_in(),
        "the chaos suite must build with the faults feature"
    );
    match std::env::var(pm_serve::faults::ENV_VAR) {
        Ok(s) if !s.trim().is_empty() => {
            let has_panics = s.contains("panic");
            (Spec::from_env(), has_panics)
        }
        _ => (Spec::parse("panic:0.05,delay:1ms").unwrap(), true),
    }
}

#[test]
fn concurrent_chaos_load_never_deadlocks_or_corrupts() {
    let (spec, has_panics) = chaos_spec();
    let server = Arc::new(Server::start(ServerConfig {
        workers: 4,
        queue_capacity: 8,
        degrade_after: 3,
        backoff_initial: Duration::from_millis(5),
        backoff_max: Duration::from_millis(50),
        faults: spec,
    }));

    // A small pool of solvable instances cycled across a few ids, so the
    // degradation machinery sees repeated traffic per id.
    let pool: Vec<_> = (0..4).map(|s| gen(120 + s as usize * 90, s)).collect();

    let producers: Vec<_> = (0..8)
        .map(|t| {
            let server = Arc::clone(&server);
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut outcomes = Outcomes::default();
                for i in 0..60u64 {
                    let which = ((t + i) % pool.len() as u64) as usize;
                    let inst = Arc::clone(&pool[which]);
                    let mut req = Request::new(inst, which as u64);
                    // Every fourth request carries a tight deadline so the
                    // shedding path sees chaos traffic too.
                    if i % 4 == 0 {
                        req = req.with_timeout(Duration::from_millis(2));
                    }
                    match server.submit(req) {
                        Ok(ticket) => {
                            // The deadlock bound: every accepted ticket must
                            // resolve. 10s is orders of magnitude above any
                            // legitimate solve under injection delays.
                            let resp = ticket
                                .wait_timeout(Duration::from_secs(10))
                                .expect("accepted request timed out: serving deadlocked");
                            outcomes.record(which, resp, &pool);
                        }
                        Err(ServeError::Overloaded { .. }) => outcomes.rejected += 1,
                        Err(ServeError::DeadlineExpired { .. }) => outcomes.shed += 1,
                        Err(other) => panic!("unexpected submit error: {other:?}"),
                    }
                }
                outcomes
            })
        })
        .collect();

    let mut total = Outcomes::default();
    for p in producers {
        total.merge(p.join().expect("producer threads must not die"));
    }

    assert_eq!(
        total.full + total.degraded + total.shed + total.faulted + total.rejected,
        8 * 60,
        "every request is accounted for exactly once"
    );
    assert!(
        total.full > 0,
        "chaos must not starve full service entirely"
    );
    let stats = server.stats();
    if has_panics {
        assert!(
            stats.panics_recovered > 0,
            "a 5% panic rate over 480 requests must trip at least once"
        );
    }
    // Consistency between the client-side tally and the server counters.
    assert_eq!(stats.rejected, total.rejected);
    assert_eq!(stats.degraded_responses, total.degraded);

    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("all clones joined"));
    server.shutdown();
}

#[derive(Default)]
struct Outcomes {
    full: u64,
    degraded: u64,
    shed: u64,
    faulted: u64,
    rejected: u64,
}

impl Outcomes {
    fn record(
        &mut self,
        which: usize,
        resp: Result<pm_serve::Response, ServeError>,
        pool: &[Arc<PrefInstance>],
    ) {
        match resp {
            Ok(r) => {
                let inst = &pool[which];
                assert!(
                    r.matching.is_valid(inst),
                    "a served matching must always be a valid assignment"
                );
                if r.quality == Quality::Full {
                    // The no-corruption bar: a panic on a neighbouring
                    // request must never leak dirty buffers into a full
                    // answer.
                    assert!(
                        is_popular_characterization(inst, &r.matching),
                        "full response failed the popularity characterization"
                    );
                    self.full += 1;
                } else {
                    self.degraded += 1;
                }
            }
            Err(ServeError::DeadlineExpired { .. }) => self.shed += 1,
            Err(ServeError::Faulted) => self.faulted += 1,
            Err(other) => panic!("unexpected response: {other:?}"),
        }
    }

    fn merge(&mut self, other: Outcomes) {
        self.full += other.full;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.faulted += other.faulted;
        self.rejected += other.rejected;
    }
}

#[test]
fn degrades_after_k_failures_and_recovers_when_injection_stops() {
    // Deterministic walk through the whole degradation lifecycle, driven by
    // a programmatic spec handle (runtime retargeting through a clone).
    let spec = Spec::none();
    let server = Server::start(ServerConfig {
        workers: 1,
        degrade_after: 2,
        backoff_initial: Duration::from_millis(10),
        backoff_max: Duration::from_millis(40),
        faults: spec.clone(),
        ..ServerConfig::default()
    });
    let inst = gen(100, 42);

    // Healthy first: caches the last-good matching for id 1.
    let full = server.call(Request::new(Arc::clone(&inst), 1)).unwrap();
    assert_eq!(full.quality, Quality::Full);

    // Certain panics from here on.
    spec.set("panic:1.0").unwrap();

    // Failure 1 of K=2: surfaced as a typed fault.
    match server.call(Request::new(Arc::clone(&inst), 1)) {
        Err(ServeError::Faulted) => {}
        other => panic!("below K must surface the fault, got {other:?}"),
    }
    // Failure 2 reaches K: degraded from now on, serving the cached
    // matching stale — bit-identical to the last full answer.
    for _ in 0..3 {
        let resp = server.call(Request::new(Arc::clone(&inst), 1)).unwrap();
        assert_eq!(resp.quality, Quality::Stale);
        assert_eq!(resp.matching, full.matching);
    }

    // Injection stops; after the backoff window a probe goes through, the
    // solver answers, and the id is re-promoted to full service.
    spec.disable();
    std::thread::sleep(Duration::from_millis(60));
    let mut recovered = false;
    for _ in 0..10 {
        let resp = server.call(Request::new(Arc::clone(&inst), 1)).unwrap();
        if resp.quality == Quality::Full {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(recovered, "the server must re-promote once injection stops");
    // Once recovered it stays recovered.
    let resp = server.call(Request::new(Arc::clone(&inst), 1)).unwrap();
    assert_eq!(resp.quality, Quality::Full);

    let stats = server.stats();
    assert!(stats.panics_recovered >= 2);
    assert!(stats.degraded_responses >= 3);
    server.shutdown();
}

#[test]
fn fresh_id_with_no_last_good_degrades_to_fallback() {
    let spec = Spec::parse("panic:1.0").unwrap();
    let server = Server::start(ServerConfig {
        workers: 1,
        degrade_after: 1,
        backoff_initial: Duration::from_secs(60),
        backoff_max: Duration::from_secs(60),
        faults: spec,
        ..ServerConfig::default()
    });
    let inst = gen(90, 11);

    // K=1: the very first panic degrades, and with nothing cached the
    // answer is the serial-dictatorship fallback.
    let resp = server.call(Request::new(Arc::clone(&inst), 5)).unwrap();
    assert_eq!(resp.quality, Quality::Fallback);
    assert!(resp.is_degraded());
    assert!(resp.matching.is_valid(&inst));

    // Inside the (long) backoff window no solver traffic happens at all:
    // the panic counter stays where it was.
    let panics_before = server.stats().panics_recovered;
    for _ in 0..3 {
        let resp = server.call(Request::new(Arc::clone(&inst), 5)).unwrap();
        assert_eq!(resp.quality, Quality::Fallback);
    }
    assert_eq!(server.stats().panics_recovered, panics_before);
    server.shutdown();
}

/// An edit of applicant `a` that keeps the list's members but reverses the
/// tail (valid against any instance with list length ≥ 2).
fn tail_reversal(inst: &PrefInstance, a: usize) -> Delta {
    let mut prefs: Vec<usize> = inst.flat_list(a).iter().map(|p| p.get()).collect();
    prefs[1..].reverse();
    Delta::EditPrefList {
        applicant: a,
        prefs,
    }
}

/// The delta half of the degradation lifecycle under certain injection
/// (`fault` is `"io:1.0"` or `"panic:1.0"`): every flush fails, deltas are
/// still applied, and a mirror [`DeltaSolver`] fed the same deltas is the
/// reference for the mutated instance and the recovered answer.
fn delta_ticks_degrade_and_recover_under(fault: &str) {
    let spec = Spec::none();
    let server = Server::start(ServerConfig {
        workers: 1,
        degrade_after: 2,
        backoff_initial: Duration::from_millis(10),
        backoff_max: Duration::from_millis(40),
        faults: spec.clone(),
        ..ServerConfig::default()
    });
    let inst = gen(120, 21);
    let (fresh, flushed) = (1u64, 2u64);
    let mut mirrors = [fresh, flushed].map(|id| {
        server.install_delta(id, &inst, SolveMode::Popular).unwrap();
        DeltaSolver::install(&inst, DeltaMode::Popular).unwrap()
    });
    let apply = |mirrors: &mut [DeltaSolver; 2], id: u64, d: Delta| {
        mirrors[id as usize - 1].apply(&d).unwrap();
        server.apply_delta(DeltaRequest::new(id, d))
    };

    // One good flush caches a last-good matching for `flushed` only.
    let good = apply(&mut mirrors, flushed, tail_reversal(&inst, 0)).unwrap();
    assert_eq!(good.quality, Quality::Full);

    spec.set(fault).unwrap();
    // Failure 1 of K = 2 on each id: answered `Faulted`.
    for (id, d) in [(fresh, Delta::AddPost), (flushed, tail_reversal(&inst, 1))] {
        match apply(&mut mirrors, id, d) {
            Err(ServeError::Faulted) => {}
            other => panic!("below K a failed flush is Faulted, got {other:?}"),
        }
    }
    // Failure 2 reaches K.  The fresh id has nothing cached: it falls back
    // to serial dictatorship over the *mutated* instance (one more
    // applicant, on the post added above).
    let prefs = vec![inst.num_posts()];
    let resp = apply(&mut mirrors, fresh, Delta::AddApplicant { prefs }).unwrap();
    assert_eq!(resp.quality, Quality::Fallback);
    let mutated = mirrors[0].snapshot_instance().unwrap();
    assert_eq!(mutated.num_applicants(), inst.num_applicants() + 1);
    assert!(resp.matching.is_valid(&mutated));
    assert_eq!(resp.matching, serial_dictatorship(&mutated));
    // The flushed id serves its last-good matching, flagged stale.
    let resp = apply(&mut mirrors, flushed, tail_reversal(&inst, 2)).unwrap();
    assert_eq!(resp.quality, Quality::Stale);
    assert_eq!(resp.matching, good.matching);

    let stats = server.stats();
    let panics = if fault.starts_with("panic") { 4 } else { 0 };
    assert_eq!(stats.panics_recovered, panics);
    assert_eq!(stats.degraded_responses, 2);

    // Injection stops; after the backoff a probe flushes for real, and the
    // answer is bit-equal to the mirror's.
    spec.disable();
    std::thread::sleep(Duration::from_millis(60));
    for (id, mut a) in [(fresh, 3usize), (flushed, 3)] {
        let resp = loop {
            let resp = apply(&mut mirrors, id, tail_reversal(&inst, a)).unwrap();
            a += 1;
            if resp.quality == Quality::Full || a > 12 {
                break resp;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(resp.quality, Quality::Full, "id {id} must re-promote");
        let want = mirrors[id as usize - 1].flush().unwrap();
        assert_eq!(resp.matching.as_slice(), want.as_slice());
    }
    assert_eq!(server.stats().panics_recovered, panics);
    server.shutdown();
}

#[test]
fn delta_ticks_degrade_and_recover_under_io_faults() {
    delta_ticks_degrade_and_recover_under("io:1.0");
}

#[test]
fn delta_ticks_degrade_and_recover_under_panics() {
    delta_ticks_degrade_and_recover_under("panic:1.0");
}
