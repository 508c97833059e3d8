//! `nephele-records`: a two-task sender → receiver `JobGraph` over a
//! `Network` (loopback TCP) channel at static LIGHT. The benchmark's own
//! tasks send records of heavy-tailed size, from tens of bytes to hundreds
//! of KiB, cut from corpora of mixed classes. `RecordWriter` /
//! `RecordReader` pack them into blocks, a second block engine beside the
//! file and socket streams; many small writes use it differently.
//!
//! The receiver keeps every record; after the job the sequence is compared
//! with what the sender emitted, record by record.

use crate::check::{records_match, Tally};
use crate::layers::shadow_pass;
use crate::trace::Tracer;
use crate::{
    derive_seed, heavy_tailed_sizes, mb_per_s, median, run_rounds, shuffle, Outcome, RunConfig,
};
use adcomp::codecs::crc32::crc32;
use adcomp::codecs::CodecId;
use adcomp::corpus::{generate, Class, Prng};
use adcomp::nephele::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const RECORDS: usize = 12_000;
/// Record sizes: Pareto shape and bounds, assumed values (README.md gives
/// the reason for each).
const RECORD_MIN: usize = 32;
const RECORD_MAX: usize = 384 * 1024;
const RECORD_ALPHA: f64 = 0.6;
/// Each class's corpus the records are cut from.
const POOL_LEN: usize = 2 << 20;
/// Channel compression: static LIGHT.
const LEVEL: usize = 1;

/// A record: `len` bytes of class pool `class` from `offset`.
#[derive(Clone, Copy)]
struct Rec {
    class: usize,
    offset: usize,
    len: usize,
}

struct Inputs {
    pools: Arc<Vec<Vec<u8>>>,
    recs: Arc<Vec<Rec>>,
}

impl Inputs {
    fn bytes(&self, r: &Rec) -> &[u8] {
        &self.pools[r.class][r.offset..r.offset + r.len]
    }
}

/// The same multiset of (size, class) pairs for every seed; the seed
/// orders them and picks where each record is cut.
fn make_inputs(seed: u64) -> Inputs {
    let pools: Vec<Vec<u8>> = Class::ALL
        .iter()
        .enumerate()
        .map(|(i, &c)| generate(c, POOL_LEN, derive_seed(seed, 400 + i as u64)))
        .collect();
    let mut rng = Prng::new(derive_seed(seed, 410));
    let mut pairs: Vec<(usize, usize)> =
        heavy_tailed_sizes(RECORDS, RECORD_MIN, RECORD_MAX, RECORD_ALPHA)
            .into_iter()
            .enumerate()
            .map(|(k, len)| (len, k % 3))
            .collect();
    shuffle(&mut pairs, &mut rng);
    let recs = pairs
        .into_iter()
        .map(|(len, class)| Rec {
            class,
            offset: rng.below((POOL_LEN - len) as u64 + 1) as usize,
            len,
        })
        .collect();
    Inputs {
        pools: Arc::new(pools),
        recs: Arc::new(recs),
    }
}

#[derive(Default)]
struct TaskTimes {
    sender_s: f64,
    receiver_s: f64,
    write_s: f64,
    read_wait_s: f64,
}

struct JobResult {
    completion_s: f64,
    times: TaskTimes,
    received: Vec<Vec<u8>>,
    blocks: u64,
    records: u64,
    app_bytes: u64,
    wire_bytes: u64,
    tracer: Tracer,
}

fn job(inputs: &Inputs, traced: bool, t0: Instant) -> Result<JobResult, String> {
    let times = Arc::new(Mutex::new(TaskTimes::default()));
    let received = Arc::new(Mutex::new(Vec::with_capacity(RECORDS)));
    let sender_tr = Arc::new(Mutex::new(Tracer::new(traced, t0)));
    let mut g = JobGraph::new("perfbench-records");
    let (pools, recs) = (Arc::clone(&inputs.pools), Arc::clone(&inputs.recs));
    let (t_send, tr_send) = (Arc::clone(&times), Arc::clone(&sender_tr));
    let sender = g.add_vertex(
        "sender",
        Box::new(FnTask(move |ctx: &mut TaskContext| {
            let start = Instant::now();
            let mut tr = tr_send.lock().expect("tracer lock");
            let mut write_s = 0.0;
            for (i, r) in recs.iter().enumerate() {
                let rec = &pools[r.class][r.offset..r.offset + r.len];
                let (res, secs) = tr.time_s("channel.write", i as u64, || ctx.write(0, rec));
                write_s += secs;
                res?;
            }
            let mut t = t_send.lock().expect("times lock");
            t.sender_s = start.elapsed().as_secs_f64();
            t.write_s = write_s;
            Ok(())
        })),
    );
    let (t_recv, sink) = (Arc::clone(&times), Arc::clone(&received));
    let receiver = g.add_vertex(
        "receiver",
        Box::new(FnTask(move |ctx: &mut TaskContext| {
            let start = Instant::now();
            let mut wait = 0.0;
            let mut got = Vec::with_capacity(RECORDS);
            loop {
                let t = Instant::now();
                let next = ctx.read(0)?;
                wait += t.elapsed().as_secs_f64();
                match next {
                    Some(rec) => got.push(rec),
                    None => break,
                }
            }
            *sink.lock().expect("records lock") = got;
            let mut t = t_recv.lock().expect("times lock");
            t.receiver_s = start.elapsed().as_secs_f64();
            t.read_wait_s = wait;
            Ok(())
        })),
    );
    g.connect(
        sender,
        receiver,
        ChannelType::Network,
        CompressionMode::Static(LEVEL),
    )
    .map_err(|e| format!("graph: {e}"))?;
    let report = Executor::default()
        .run(g)
        .map_err(|e| format!("job: {e}"))?;
    let stats = &report.edges[0].stats;
    let times = std::mem::take(&mut *times.lock().expect("times lock"));
    let received = std::mem::take(&mut *received.lock().expect("records lock"));
    let tracer = std::mem::replace(
        &mut *sender_tr.lock().expect("tracer lock"),
        Tracer::new(false, t0),
    );
    Ok(JobResult {
        completion_s: report.completion_secs,
        times,
        received,
        blocks: stats.blocks_per_level.iter().sum(),
        records: stats.records,
        app_bytes: stats.app_bytes,
        wire_bytes: stats.wire_bytes,
        tracer,
    })
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut tally = Tally::default();
    let mut tr = Tracer::new(false, t0);
    let mut setups = Vec::new();
    let (mut write_rates, mut read_rates) = (Vec::new(), Vec::new());
    let (mut app, mut wire) = (0u64, 0u64);
    let mut layer: Vec<(&'static str, Vec<f64>)> = vec![
        ("channel.write_s", Vec::new()),
        ("channel.read_wait_s", Vec::new()),
        ("channel.records", Vec::new()),
        ("channel.blocks", Vec::new()),
        ("executor.overhead_s", Vec::new()),
        ("unattributed_s", Vec::new()),
    ];
    let (mut traced_job, mut plain_job) = (Vec::new(), Vec::new());
    let mut gen = (0u64, 0.0f64);
    let mut shadow = None;

    let rounds = run_rounds(cfg.seconds, |round| {
        let traced_round = cfg.traced && round % 2 == 1;
        let t = Instant::now();
        let inputs = make_inputs(cfg.seed);
        let setup_s = t.elapsed().as_secs_f64();
        setups.push(setup_s);
        if round == 0 {
            out.inputs_crc = inputs.pools.iter().fold(0, |a, p| a ^ crc32(p))
                ^ inputs.recs.iter().fold(0u32, |a, r| {
                    a.rotate_left(3) ^ (r.offset ^ r.len << 2 ^ r.class) as u32
                });
        }
        let res = match job(&inputs, traced_round, t0) {
            Ok(r) => r,
            Err(e) => {
                tally.record("record job", Err(e));
                return;
            }
        };
        let mut received = res.received;
        if cfg.damage && round == 0 {
            if let Some(r) = received.iter_mut().find(|r| !r.is_empty()) {
                r[0] ^= 0x01;
            }
        }
        let sent: Vec<&[u8]> = inputs.recs.iter().map(|r| inputs.bytes(r)).collect();
        tally.record("record sequence", records_match(&sent, &received));
        let bytes: u64 = sent.iter().map(|r| r.len() as u64).sum();
        write_rates.push(mb_per_s(bytes, res.times.sender_s));
        read_rates.push(mb_per_s(bytes, res.completion_s));
        app += res.app_bytes;
        wire += res.wire_bytes;
        if traced_round {
            traced_job.push(res.completion_s);
            gen.0 += 3 * POOL_LEN as u64;
            gen.1 += setup_s;
            let tm = &res.times;
            let tasks = tm.sender_s.max(tm.receiver_s);
            let spans_s: f64 = res
                .tracer
                .totals()
                .get("channel.write")
                .map_or(0.0, |t| t.total_s);
            let values = [
                tm.write_s,
                tm.read_wait_s,
                res.records as f64,
                res.blocks as f64,
                (res.completion_s - tasks).max(0.0),
                (tm.sender_s - spans_s).max(0.0),
            ];
            for ((_, v), x) in layer.iter_mut().zip(values) {
                v.push(x);
            }
            let mut rt = res.tracer;
            if shadow.is_none() {
                let all: Vec<u8> = sent.concat();
                match shadow_pass(&mut rt, &all, |_| CodecId::QlzLight) {
                    Ok(s) => shadow = Some(s),
                    Err(e) => tally.record("shadow", Err(e)),
                }
            }
            tr.absorb(rt);
        } else {
            plain_job.push(res.completion_s);
        }
    });
    out.tally = tally;
    out.rounds = rounds;
    out.put("setup_s", median(&setups), "s");
    out.put("write_MBps", median(&write_rates), "MB/s");
    out.put("read_MBps", median(&read_rates), "MB/s");
    out.note("job_MBps", median(&read_rates));
    out.note("wire_ratio", wire as f64 / app.max(1) as f64);
    if cfg.traced {
        for (name, v) in &layer {
            out.put(
                name,
                median(v),
                if name.ends_with("_s") { "s" } else { "count" },
            );
        }
        if let Some(s) = &shadow {
            s.report(&mut out);
        }
        out.put("corpus.gen_MBps", mb_per_s(gen.0, gen.1), "MB/s");
        out.put(
            "trace.overhead_s",
            median(&traced_job) - median(&plain_job),
            "s",
        );
        crate::layers::write_spans(&tr, "nephele-records", cfg.seed);
    }
    out
}
