//! `update` and `serve`: a server started with a WAL that fsyncs every
//! commit, driven over the wire by `probkb_client::Client`.
//!
//! `update` applies the held-out tail back to back on one connection.
//! `serve` runs one reader connection in a closed loop while a second
//! connection applies deltas on a fixed open-loop schedule.
//!
//! The traced run alternates, delta by delta, between the server (over
//! the wire) and an in-process replay that calls the writer's public
//! stages in the order `writer::apply_one` calls them, timing each; on
//! `serve` the same read requests go to both at every epoch. Pairing the
//! two keeps slow drift of the machine out of the differences between
//! them. A second replay afterwards must repeat every count exactly.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use probkb::core::prelude::{expand, ExpandOptions, GroundingConfig, LocalGrounder};
use probkb::pipeline::IncrementalPipeline;
use probkb::storage::wal::WalWriter;
use probkb_client::client::Client;
use probkb_client::protocol::{CacheStatus, DeltaOutcome, FactRef, Request, Response};
use probkb_server::epoch::{serve_read, EpochState};
use probkb_server::{start, ServerConfig, ServerHandle};

use crate::check::{epoch_content, served_digest, valid_marginal, Digest};
use crate::expand::gibbs;
use crate::inputs::{load, FactKey, Inputs, ReadMix, ReadOp, LINEAGE_DEPTH, LOCAL_BUDGET};
use crate::stats::{median, ms, peak_rss_mb, quantile, reset_peak_rss, share, us, Record};
use crate::Run;

/// Server set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Start a server with a fresh WAL on the base KB text and connect to
/// it; returns the time from KB text to the first answered request.
fn start_server(
    run: &Run,
    inputs: &Inputs,
    n: usize,
    record: &mut Record,
) -> (ServerHandle, Client, f64) {
    let wal = run.work_dir.join(format!("server-{n}.wal"));
    let _ = std::fs::remove_file(&wal);
    let config = ServerConfig {
        wal_path: Some(wal),
        gibbs: gibbs(),
        ..ServerConfig::default()
    };
    let t = Instant::now();
    let handle = start(load(&inputs.base_text), config).expect("server start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let pong = client.ping();
    let elapsed = t.elapsed().as_secs_f64();
    record.check(matches!(pong, Ok((0, _, _))), || {
        format!("PING at start: {pong:?}")
    });
    (handle, client, elapsed)
}

fn shutdown(handle: ServerHandle, mut client: Client, applied: usize, record: &mut Record) {
    let ack = client.shutdown();
    record.check(matches!(ack, Ok(e) if e == applied as u64), || {
        format!("SHUTDOWN answered {ack:?}")
    });
    drop(client);
    handle.join();
}

fn fact_ref(key: &FactKey) -> FactRef {
    FactRef::Names {
        rel: key.rel.clone(),
        x: key.x.clone(),
        y: key.y.clone(),
    }
}

fn request(op: &ReadOp) -> Request {
    match op {
        ReadOp::FactById(id) => Request::Fact(FactRef::Id(*id)),
        ReadOp::FactByKey(key) => Request::Fact(fact_ref(key)),
        ReadOp::MarginalById(id) => Request::Marginal(FactRef::Id(*id)),
        ReadOp::LineageById(id) => Request::Lineage {
            fact: FactRef::Id(*id),
            max_depth: LINEAGE_DEPTH,
        },
        ReadOp::Local(key) => Request::MarginalLocal {
            fact: fact_ref(key),
            budget: Some(LOCAL_BUDGET),
        },
    }
}

/// How a `MARGINAL_LOCAL` answer used the epoch's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cache {
    Miss,
    Hit,
    Carried,
}

/// The deterministic content of a `MARGINAL_LOCAL` answer (nodes,
/// factors, frontier stops, exact, probability bits) and its cache use.
type LocalAnswer = ([u64; 5], Cache);

/// A read answer's epoch (and local answer), when it is the typed
/// success `op` asks for and its content is in range.
fn read_answer(op: &ReadOp, response: &Response) -> Option<(u64, Option<LocalAnswer>)> {
    match (op, response) {
        (
            ReadOp::FactById(_) | ReadOp::FactByKey(_),
            Response::Fact {
                epoch,
                fact: Some(_),
            },
        ) => Some((*epoch, None)),
        (ReadOp::MarginalById(_), Response::Marginal { epoch, marginal }) => marginal
            .as_ref()
            .is_none_or(|m| valid_marginal(m.p))
            .then_some((*epoch, None)),
        (
            ReadOp::LineageById(_),
            Response::Lineage {
                epoch,
                lineage: Some(_),
            },
        ) => Some((*epoch, None)),
        (
            ReadOp::Local(_),
            Response::MarginalLocal {
                epoch,
                marginal: Some(m),
            },
        ) if valid_marginal(m.p) => {
            let cache = match m.cache {
                CacheStatus::Miss => Cache::Miss,
                CacheStatus::Hit => Cache::Hit,
                CacheStatus::Carried => Cache::Carried,
            };
            let content = [
                m.nodes,
                m.factors,
                m.frontier_stops,
                u64::from(m.exact),
                m.p.to_bits(),
            ];
            Some((*epoch, Some((content, cache))))
        }
        _ => None,
    }
}

/// What the wire side observed.
#[derive(Default)]
struct Wire {
    update_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    acks: Vec<DeltaOutcome>,
    point_us: Vec<f64>,
    local_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    /// Reader requests answered.
    reads: usize,
    reader_s: f64,
    local: Vec<LocalAnswer>,
}

/// Apply one delta on `client`, timed from `due`, and check the ack: a
/// typed success whose epoch is the previous one + 1.
fn apply(client: &mut Client, text: &str, due: Instant, wire: &mut Wire, record: &mut Record) {
    record.attempted += 1;
    match client.apply_delta(text) {
        Ok(outcome) => {
            wire.update_ms.push(ms(due.elapsed()));
            let want = wire.acks.len() as u64 + 1;
            if outcome.epoch != want {
                record.fail(format!(
                    "ack epoch {} after {} deltas",
                    outcome.epoch,
                    want - 1
                ));
            }
            wire.acks.push(outcome);
        }
        Err(e) => record.fail(format!("APPLY_DELTA failed: {e}")),
    }
}

/// The reader connection's request stream and the epochs it has seen.
struct Reader {
    mix: ReadMix,
    last_epoch: u64,
    last_local_epoch: Option<u64>,
}

impl Reader {
    fn new(mix: ReadMix) -> Reader {
        Reader {
            mix,
            last_epoch: 0,
            last_local_epoch: None,
        }
    }

    /// Send the mix's next request and check the answer: a typed
    /// success, in range, at an epoch no older than the last one seen.
    fn read_one(&mut self, client: &mut Client, wire: &mut Wire, record: &mut Record) {
        let op = self.mix.next_op();
        let req = request(&op);
        record.attempted += 1;
        let t = Instant::now();
        let response = client.roundtrip(&req);
        let elapsed = t.elapsed();
        let Some((epoch, local)) = response.as_ref().ok().and_then(|r| read_answer(&op, r)) else {
            record.fail(format!("{op:?} answered {response:?}"));
            return;
        };
        if epoch < self.last_epoch {
            record.fail(format!(
                "epoch went back from {} to {epoch}",
                self.last_epoch
            ));
        }
        self.last_epoch = epoch;
        wire.reads += 1;
        match local {
            Some(answer) => {
                wire.local_ms.push(ms(elapsed));
                wire.local.push(answer);
                if self.last_local_epoch != Some(epoch) {
                    wire.fresh_ms.push(ms(elapsed));
                    self.last_local_epoch = Some(epoch);
                }
            }
            None => wire.point_us.push(us(elapsed)),
        }
    }
}

/// `update`: apply deltas back to back until the window closes.
fn update_loop(run: &Run, inputs: &Inputs, client: &mut Client, record: &mut Record) -> Wire {
    let mut wire = Wire::default();
    let start = Instant::now();
    for text in &inputs.deltas {
        if run.expired(start) {
            break;
        }
        apply(client, text, Instant::now(), &mut wire, record);
    }
    if !run.expired(start) {
        println!("note: the held-out tail ran out before the window closed");
    }
    wire
}

/// The writer side of `serve`: one delta per interval, open loop, each
/// timed from when it was due.
fn writer_loop(
    addr: std::net::SocketAddr,
    deltas: &[String],
    start: Instant,
    interval: Duration,
    deadline: Instant,
) -> (Wire, Record) {
    let mut wire = Wire::default();
    let mut record = Record::default();
    let mut client = Client::connect(addr).expect("connect writer");
    for (i, text) in deltas.iter().enumerate() {
        let due = start + interval * (i as u32 + 1);
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        wire.lateness_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        apply(&mut client, text, due, &mut wire, &mut record);
    }
    (wire, record)
}

/// `serve`: the reader runs a closed loop on `client` while a second
/// connection applies one delta per interval, until the window closes.
fn serve_loop(
    run: &Run,
    inputs: &Inputs,
    addr: std::net::SocketAddr,
    client: &mut Client,
    reader: &mut Reader,
    record: &mut Record,
) -> Wire {
    let interval = Duration::from_millis(run.scale.serve_delta_interval_ms);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(run.seconds);
    let (mut wire, (writer, writer_record)) = std::thread::scope(|s| {
        let writer = s.spawn(|| writer_loop(addr, &inputs.deltas, start, interval, deadline));
        let mut wire = Wire::default();
        while Instant::now() < deadline {
            reader.read_one(client, &mut wire, record);
        }
        wire.reader_s = start.elapsed().as_secs_f64();
        (wire, writer.join().expect("writer thread panicked"))
    });
    wire.update_ms = writer.update_ms;
    wire.lateness_ms = writer.lateness_ms;
    wire.acks = writer.acks;
    record.attempted += writer_record.attempted;
    for why in writer_record.failures {
        record.fail(why);
    }
    wire
}

/// The served state after `applied` deltas must be the state a full
/// re-ground of the same KB text grounds: same `STATS` counts, same
/// served content, every marginal in range. Returns the served content
/// digest with probabilities.
fn check_final(
    inputs: &Inputs,
    handle: &ServerHandle,
    client: &mut Client,
    applied: usize,
    record: &mut Record,
) -> Digest {
    let state = handle.shared().current.load();
    let served = epoch_content(&state, false);
    let with_p = epoch_content(&state, true).digest;
    record.check(served.bad_marginals == 0, || {
        format!("{} served marginals outside [0,1]", served.bad_marginals)
    });

    let kb = load(&inputs.union_text(applied));
    let oracle = expand(&kb, &ExpandOptions::default()).expect("oracle expand");
    let (facts, factors) = (&oracle.outcome.facts, &oracle.outcome.factors);
    let want = served_digest(&kb, facts, factors);
    println!("digest served {}", served.digest.render());
    record.check(served.digest == want, || {
        format!(
            "served content {} != re-ground {}",
            served.digest.render(),
            want.render()
        )
    });

    match client.stats() {
        Ok(stats) => {
            let got = (stats.epoch, stats.facts, stats.inferred, stats.factors);
            let want = (
                applied as u64,
                facts.len() as u64,
                want.inferred,
                factors.len() as u64,
            );
            record.check(got == want, || {
                format!("STATS (epoch, facts, inferred, factors) {got:?} != {want:?}")
            });
        }
        Err(e) => record.fail(format!("STATS failed: {e}")),
    }
    with_p
}

/// The reader's request stream over the epoch-0 facts.
fn read_mix(run: &Run, handle: &ServerHandle) -> ReadMix {
    let content = epoch_content(&handle.shared().current.load(), false);
    ReadMix::new(run.seed, content.keys, content.inferred_keys)
}

pub fn run(run: &Run, inputs: &Inputs, serve: bool, record: &mut Record) {
    if run.trace {
        return traced(run, inputs, serve, record);
    }
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    let mut mix = None;
    for n in 0..SETUPS {
        if let Some((handle, client)) = server.take() {
            shutdown(handle, client, 0, record);
        }
        let (handle, client, secs) = start_server(run, inputs, n, record);
        setups.push(secs);
        if n == 0 {
            // The read mix is the benchmark's work, not the program's:
            // build it on the first server, then restart the peak so
            // that it covers the later set-ups and the measured window.
            mix = serve.then(|| read_mix(run, &handle));
            reset_peak_rss();
        }
        server = Some((handle, client));
    }
    record.timing("setup_s", median(&setups), "s", setups.len());
    let (handle, mut client) = server.expect("at least one set-up");

    let wire = match mix {
        Some(mix) => {
            let mut reader = Reader::new(mix);
            serve_loop(run, inputs, handle.addr(), &mut client, &mut reader, record)
        }
        None => update_loop(run, inputs, &mut client, record),
    };
    // Before the final checks, which re-ground the KB in this process.
    record.set("peak_rss_mb", peak_rss_mb(), "MB");
    report_wire(&wire, serve, record);
    let applied = wire.acks.len();
    check_final(inputs, &handle, &mut client, applied, record);
    shutdown(handle, client, applied, record);
}

/// End-to-end metrics of the wire phase by their report names, plus the
/// `BENCHMARK.json` metric they map to.
fn report_wire(wire: &Wire, serve: bool, record: &mut Record) {
    let n = wire.update_ms.len();
    record.timing("update_ms_p50", median(&wire.update_ms), "ms", n);
    if !serve {
        record.timing("update_ms_p90", quantile(&wire.update_ms, 0.9), "ms", n);
        record.timing("latency_ms_p50", median(&wire.update_ms), "ms", n);
        return;
    }
    println!(
        "generator lateness: p50 {:.3} ms, max {:.3} ms over {} deltas",
        median(&wire.lateness_ms),
        quantile(&wire.lateness_ms, 1.0),
        wire.lateness_ms.len()
    );
    let points = wire.point_us.len();
    record.timing("read_us_p50", median(&wire.point_us), "us", points);
    record.timing("read_us_p99", quantile(&wire.point_us, 0.99), "us", points);
    let all = wire.reads;
    record.timing("read_qps", share(all as f64, wire.reader_s), "1/s", all);
    let locals = wire.local_ms.len();
    record.timing("local_ms_p50", median(&wire.local_ms), "ms", locals);
    record.timing("local_ms_p99", quantile(&wire.local_ms, 0.99), "ms", locals);
    let fresh = wire.fresh_ms.len();
    record.timing("local_fresh_ms_p50", median(&wire.fresh_ms), "ms", fresh);
    let count = |c: Cache| wire.local.iter().filter(|l| l.1 == c).count();
    println!(
        "local cache over the wire: miss {} hit {} carried {}",
        count(Cache::Miss),
        count(Cache::Hit),
        count(Cache::Carried)
    );
    record.timing("latency_ms_p50", median(&wire.local_ms), "ms", locals);
}

/// Stage timings and deterministic outcomes of one in-process replay.
#[derive(Default)]
struct Replay {
    parse_kb_ms: f64,
    /// Per delta, in the order `writer::apply_one` runs the stages.
    apply_ms: Vec<f64>,
    delta_ms: Vec<f64>,
    blanket_ms: Vec<f64>,
    splice_ms: Vec<f64>,
    wal_ms: Vec<f64>,
    epoch_ms: Vec<f64>,
    carry_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
    total_ms: Vec<f64>,
    /// Per epoch, on `serve`.
    local_index_ms: Vec<f64>,
    lookup_us: Vec<f64>,
    /// Everything below must repeat exactly between replays.
    /// Per delta: rounds, new facts, reused facts, new factors, fallback.
    deltas: Vec<[u64; 5]>,
    /// Per delta: blanket touched, vars, active shards.
    blanket: Vec<[u64; 3]>,
    wal_bytes: Vec<u64>,
    local: Vec<LocalAnswer>,
    graph: (u64, u64),
    final_digest: Option<Digest>,
}

impl Replay {
    fn deterministic(&self) -> impl PartialEq + '_ {
        (
            &self.deltas,
            &self.blanket,
            &self.wal_bytes,
            &self.local,
            self.graph,
            &self.final_digest,
        )
    }
}

fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    let elapsed = ms(t.elapsed());
    samples.push(elapsed);
    (out, elapsed)
}

/// An in-process replay of the writer and, on `serve`, the reader.
struct Replayer<'a> {
    inputs: &'a Inputs,
    pipeline: IncrementalPipeline,
    wal: WalWriter,
    wal_path: PathBuf,
    prev: Arc<EpochState>,
    mix: Option<ReadMix>,
    out: Replay,
}

impl<'a> Replayer<'a> {
    fn new(run: &Run, inputs: &'a Inputs, tag: &str, mix: Option<ReadMix>) -> Replayer<'a> {
        let mut out = Replay::default();
        let t = Instant::now();
        let kb = load(&inputs.base_text);
        out.parse_kb_ms = ms(t.elapsed());
        let pipeline =
            IncrementalPipeline::new(kb, GroundingConfig::default(), gibbs()).expect("pipeline");
        let wal_path = run.work_dir.join(format!("replay-{tag}.wal"));
        let wal = WalWriter::create(&wal_path).expect("replay wal");
        let prev = Arc::new(EpochState::from_pipeline(&pipeline, 0));
        Replayer {
            inputs,
            pipeline,
            wal,
            wal_path,
            prev,
            mix,
            out,
        }
    }

    /// Serve `n` requests of the mix from the current epoch through the
    /// read path (`serve_read` / `serve_local`), after timing a local
    /// index build on the epoch's snapshot.
    fn reads(&mut self, n: usize, record: &mut Record) {
        let Some(mix) = self.mix.as_mut() else {
            return;
        };
        let session = self.pipeline.session();
        let snapshot = session.facts().clone();
        let rules = &session.kb().rules;
        timed(&mut self.out.local_index_ms, || {
            std::hint::black_box(LocalGrounder::new(snapshot, rules).expect("local index"))
        });
        for _ in 0..n {
            let op = mix.next_op();
            let req = request(&op);
            record.attempted += 1;
            let t = Instant::now();
            let response = match &req {
                Request::MarginalLocal { fact, budget } => {
                    Some(self.prev.serve_local(fact, *budget))
                }
                other => serve_read(&self.prev, other),
            };
            let elapsed = t.elapsed();
            match response.as_ref().and_then(|r| read_answer(&op, r)) {
                Some((_, Some(answer))) => self.out.local.push(answer),
                Some((_, None)) => self.out.lookup_us.push(us(elapsed)),
                None => record.fail(format!("replayed {op:?} answered {response:?}")),
            }
        }
    }

    /// Apply delta `i` stage by stage, as `writer::apply_one` does.
    fn delta(&mut self, i: usize, record: &mut Record) {
        let text = &self.inputs.deltas[i];
        let out = &mut self.out;
        let pipeline = &mut self.pipeline;
        record.attempted += 1;
        let t = Instant::now();
        let delta = pipeline.parse_delta(text).expect("delta text parses");
        let parse = ms(t.elapsed());
        let (applied, apply) = timed(&mut out.apply_ms, || pipeline.apply_delta(&delta));
        let applied = applied.expect("apply_delta");
        let grounding = ms(applied.grounding.elapsed);
        let blanket = ms(applied.inference.elapsed);
        out.delta_ms.push(grounding);
        out.blanket_ms.push(blanket);
        out.splice_ms.push(apply - grounding - blanket);
        // Parent ≥ children: apply_delta's wall covers delta grounding
        // and the blanket resample it runs internally.
        record.check(apply >= grounding + blanket, || {
            format!("apply_delta {apply:.3}ms < delta {grounding:.3}ms + blanket {blanket:.3}ms")
        });

        let before = std::fs::metadata(&self.wal_path).map_or(0, |m| m.len());
        let wal = &mut self.wal;
        let (committed, wal_ms) = timed(&mut out.wal_ms, || {
            wal.append(text.as_bytes()).and_then(|()| wal.commit())
        });
        committed.expect("wal commit");
        let after = std::fs::metadata(&self.wal_path).map_or(0, |m| m.len());
        out.wal_bytes.push(after - before);

        let (state, epoch_ms) = timed(&mut out.epoch_ms, || {
            EpochState::from_pipeline(pipeline, i as u64 + 1)
        });
        let prev = &self.prev;
        let ((), carry_ms) = timed(&mut out.carry_ms, || {
            state.carry_local_cache(
                prev,
                &applied.touched_facts,
                &applied.remap,
                applied.grounding.full_fallback,
            )
        });
        let (prepared, prepare_ms) = timed(&mut out.prepare_ms, || pipeline.prepare());
        prepared.expect("prepare");
        out.total_ms
            .push(parse + apply + wal_ms + epoch_ms + carry_ms + prepare_ms);

        let report = &applied.grounding;
        out.deltas.push([
            report.rounds.len() as u64,
            report.new_facts as u64,
            report.reused_facts as u64,
            report.new_factors as u64,
            u64::from(report.full_fallback),
        ]);
        let inference = &applied.inference;
        out.blanket.push([
            inference.touched as u64,
            inference.vars as u64,
            inference.active_shards as u64,
        ]);
        self.prev = Arc::new(state);
    }

    fn finish(mut self) -> Replay {
        let graph = &self.pipeline.graph().graph;
        self.out.graph = (graph.num_vars() as u64, graph.factors().len() as u64);
        self.out.final_digest = Some(epoch_content(&self.prev, true).digest);
        let _ = std::fs::remove_file(&self.wal_path);
        self.out
    }
}

fn traced(run: &Run, inputs: &Inputs, serve: bool, record: &mut Record) {
    let deltas = run.scale.traced_deltas.min(inputs.deltas.len());
    let reads = if serve { run.scale.traced_reads } else { 0 };
    let (handle, mut client, _) = start_server(run, inputs, 0, record);
    let mix = serve.then(|| read_mix(run, &handle));

    // Server and replay A in lockstep: at every epoch the same reads go
    // to both, then the next delta goes to both.
    let mut reader = mix.clone().map(Reader::new);
    let mut a = Replayer::new(run, inputs, "a", mix.clone());
    let mut wire = Wire::default();
    for i in 0..=deltas {
        if let Some(reader) = reader.as_mut() {
            for _ in 0..reads {
                reader.read_one(&mut client, &mut wire, record);
            }
        }
        a.reads(reads, record);
        if i == deltas {
            break;
        }
        apply(
            &mut client,
            &inputs.deltas[i],
            Instant::now(),
            &mut wire,
            record,
        );
        a.delta(i, record);
    }
    let applied = wire.acks.len();
    let served = check_final(inputs, &handle, &mut client, applied, record);
    shutdown(handle, client, applied, record);
    let a = a.finish();

    // Replay B on its own: every count must repeat exactly.
    let mut b = Replayer::new(run, inputs, "b", mix);
    for i in 0..=deltas {
        b.reads(reads, record);
        if i < deltas {
            b.delta(i, record);
        }
    }
    let b = b.finish();
    record.check(a.deterministic() == b.deterministic(), || {
        "deterministic counts differ between the two replays".into()
    });
    let wire_acks: Vec<[u64; 3]> = wire
        .acks
        .iter()
        .map(|o| [o.new_facts, o.reused_facts, o.new_factors])
        .collect();
    let replay_acks: Vec<[u64; 3]> = a.deltas.iter().map(|d| [d[1], d[2], d[3]]).collect();
    record.check(wire_acks == replay_acks, || {
        format!("server acks {wire_acks:?} != replay {replay_acks:?}")
    });
    record.check(wire.local == a.local, || {
        "MARGINAL_LOCAL answers over the wire differ from the replay's".into()
    });
    record.check(a.final_digest.as_ref() == Some(&served), || {
        format!(
            "served state {} != replayed state {:?}",
            served.render(),
            a.final_digest.as_ref().map(Digest::render)
        )
    });
    report_layers(&wire, &a, serve, record);
}

fn report_layers(wire: &Wire, a: &Replay, serve: bool, record: &mut Record) {
    let n = a.deltas.len().max(1) as f64;
    let per_delta = |i: usize| a.deltas.iter().map(|d| d[i]).sum::<u64>() as f64 / n;
    record.set("kb.parse_ms", a.parse_kb_ms, "ms");
    record.set("core.delta_ms", median(&a.delta_ms), "ms");
    record.set("core.delta_rounds", per_delta(0), "count");
    record.set("core.delta_new_facts", per_delta(1), "count");
    record.set("core.delta_reused_facts", per_delta(2), "count");
    record.set("core.delta_new_factors", per_delta(3), "count");
    record.set("core.delta_fallbacks", per_delta(4) * n, "count");
    record.set("core.prepare_ms", median(&a.prepare_ms), "ms");
    record.set("factorgraph.splice_ms", median(&a.splice_ms), "ms");
    record.set("factorgraph.vars", a.graph.0 as f64, "count");
    record.set("factorgraph.factors", a.graph.1 as f64, "count");
    record.set("inference.blanket_ms", median(&a.blanket_ms), "ms");
    let blanket = |i: usize| a.blanket.iter().map(|b| b[i]).sum::<u64>() as f64;
    record.set("inference.blanket_touched", blanket(0) / n, "count");
    record.set("inference.blanket_vars", blanket(1) / n, "count");
    record.set(
        "inference.blanket_touched_ratio",
        share(blanket(0), blanket(1)),
        "ratio",
    );
    record.set("inference.blanket_active_shards", blanket(2) / n, "count");
    record.set("storage.wal_commit_ms", median(&a.wal_ms), "ms");
    record.set(
        "storage.wal_bytes",
        a.wal_bytes.iter().sum::<u64>() as f64 / n,
        "bytes",
    );
    record.set("server.epoch_build_ms", median(&a.epoch_ms), "ms");
    record.set("server.cache_carry_ms", median(&a.carry_ms), "ms");
    // Each delta went to the server and to the replay back to back, so
    // the difference is taken per delta.
    let wire_gap: Vec<f64> = wire
        .update_ms
        .iter()
        .zip(&a.total_ms)
        .map(|(w, s)| w - s)
        .collect();
    record.set("server.wire_ms", median(&wire_gap), "ms");

    let update_p50 = median(&wire.update_ms);
    let stages = median(&a.total_ms);
    let prepare = median(&a.prepare_ms);
    println!(
        "update path: wire update_ms_p50 {update_p50:.3} ms; in-process writer stages p50 {stages:.3} ms; \
         core.prepare_ms {prepare:.3} ms = {:.1}% of update_ms_p50 (n={})",
        100.0 * share(prepare, update_p50),
        a.total_ms.len()
    );
    println!(
        "tracing overhead: traced in-process delta p50 {stages:.3} ms vs untraced wire delta p50 \
         {update_p50:.3} ms ({:+.1}%; the untraced side also pays the wire and the session hop)",
        100.0 * (share(stages, update_p50) - 1.0)
    );

    if serve {
        record.set("core.local_index_ms", median(&a.local_index_ms), "ms");
        let answers = a.local.len() as f64;
        let sum = |i: usize| a.local.iter().map(|l| l.0[i]).sum::<u64>() as f64;
        let cache = |c: Cache| a.local.iter().filter(|l| l.1 == c).count() as f64;
        record.set("core.local_nodes", share(sum(0), answers), "count");
        record.set("core.local_factors", share(sum(1), answers), "count");
        record.set("core.local_frontier_stops", share(sum(2), answers), "count");
        record.set(
            "inference.local_exact_share",
            share(sum(3), answers),
            "ratio",
        );
        record.set(
            "server.local_miss_share",
            share(cache(Cache::Miss), answers),
            "ratio",
        );
        record.set(
            "server.local_hit_share",
            share(cache(Cache::Hit), answers),
            "ratio",
        );
        record.set(
            "server.local_carried_share",
            share(cache(Cache::Carried), answers),
            "ratio",
        );
        let lookup = median(&a.lookup_us);
        let read_p50 = median(&wire.point_us);
        record.set("server.lookup_us_p50", lookup, "us");
        record.set("client.wire_us_p50", read_p50 - lookup, "us");
        println!(
            "read path: wire read_us_p50 {read_p50:.3} us (n={}); in-process serve_read p50 \
             {lookup:.3} us (n={}); the replay also builds one local index per epoch outside the \
             read path",
            wire.point_us.len(),
            a.lookup_us.len()
        );
    }
}
