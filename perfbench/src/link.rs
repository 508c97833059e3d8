//! `shared-link`: the paper's scenario. The rate-based controller
//! (`RateBasedModel::paper_default`, 2 s epochs) with two pipeline workers
//! streams a corpus that switches HIGH → MODERATE → LOW through a token
//! bucket of fixed rate. One raw background flow draws from the same
//! bucket (`SharedThrottle`) on a fixed on/off schedule, so the adaptive
//! flow's share of the link changes under it.
//!
//! A receiver thread decodes the link's bytes as they arrive and compares
//! them with its own regeneration of the corpus; afterwards the release
//! times of both flows are checked against the link's byte budget.

use crate::check::{same_bytes, within_link_rate, Tally};
use crate::trace::Tracer;
use crate::{derive_seed, mb_per_s, median, run_rounds, Outcome, RunConfig};
use adcomp::codecs::crc32::crc32;
use adcomp::codecs::frame::DEFAULT_BLOCK_LEN;
use adcomp::codecs::LevelSet;
use adcomp::core::model::RateBasedModel;
use adcomp::core::throttle::THROTTLE_SLICE;
use adcomp::core::{AdaptiveReader, AdaptiveWriter, SharedThrottle, WallClock};
use adcomp::corpus::{ByteSource, Class, CyclicSource, SwitchingSource};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

/// Link rate, bytes per second.
const LINK_BPS: f64 = 20e6;
/// Application bytes per class segment; a round sends three.
const SEGMENT_BYTES: u64 = 48 << 20;
/// Length of each class's replayed test file.
const FILE_LEN: usize = 4 << 20;
/// Background flow schedule: on for `BG_ON` seconds, then off for
/// `BG_OFF`, starting off, from the start of each round.
const BG_OFF: f64 = 1.5;
const BG_ON: f64 = 1.0;
const SETUP_REPS: usize = 5;
/// Pipeline compression workers of the adaptive writer.
const WORKERS: usize = 2;

struct Corpus {
    files: Vec<Vec<u8>>,
}

impl Corpus {
    fn generate(seed: u64) -> Corpus {
        let files = Class::ALL
            .iter()
            .enumerate()
            .map(|(i, &c)| adcomp::corpus::generate(c, FILE_LEN, derive_seed(seed, 200 + i as u64)))
            .collect();
        Corpus { files }
    }

    fn source(&self) -> SwitchingSource {
        let sources: Vec<Box<dyn ByteSource>> = self
            .files
            .iter()
            .map(|f| Box::new(CyclicSource::new(f.clone())) as Box<dyn ByteSource>)
            .collect();
        SwitchingSource::new(sources, SEGMENT_BYTES)
    }
}

/// The adaptive flow's end of the link: paces every slice through the
/// shared bucket, then hands it to the receiver.
struct LinkWriter {
    throttle: SharedThrottle,
    tx: SyncSender<Vec<u8>>,
    t0: Instant,
    released: u64,
    samples: Vec<(f64, u64)>,
    sleep: Duration,
}

impl Write for LinkWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(THROTTLE_SLICE);
        let t = Instant::now();
        self.throttle.pace(n);
        self.sleep += t.elapsed();
        self.released += n as u64;
        self.samples
            .push((self.t0.elapsed().as_secs_f64(), self.released));
        self.tx
            .send(buf[..n].to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "receiver gone"))?;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The receiving host's socket: slices in link order.
struct LinkReader {
    rx: Receiver<Vec<u8>>,
    cur: Vec<u8>,
    pos: usize,
}

impl Read for LinkReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.cur.len() {
            match self.rx.recv() {
                Ok(v) => {
                    self.cur = v;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = (self.cur.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.cur[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Decodes the link stream and compares it with a fresh copy of the
/// corpus; returns when the link closes, with the time the last byte was
/// decoded.
fn receive(
    rx: Receiver<Vec<u8>>,
    mut expected: SwitchingSource,
    total: u64,
    t0: Instant,
    damage: bool,
) -> Result<f64, String> {
    let mut r = AdaptiveReader::new(LinkReader {
        rx,
        cur: Vec::new(),
        pos: 0,
    });
    let mut got = vec![0u8; DEFAULT_BLOCK_LEN];
    let mut want = vec![0u8; DEFAULT_BLOCK_LEN];
    let mut seen = 0u64;
    loop {
        let n = r.read(&mut got).map_err(|e| format!("link decode: {e}"))?;
        if n == 0 {
            break;
        }
        if seen + n as u64 > total {
            return Err(format!("link delivered more than {total} bytes"));
        }
        expected.fill(&mut want[..n]);
        if damage && seen == 0 {
            got[n / 2] ^= 0x01;
        }
        same_bytes(&want[..n], &got[..n]).map_err(|e| format!("at offset {seen}: {e}"))?;
        seen += n as u64;
    }
    if seen != total {
        return Err(format!("link delivered {seen} of {total} bytes"));
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Raw background flow: paces slices through the shared bucket while its
/// schedule says on, until `stop` is set.
fn background(throttle: SharedThrottle, stop: &AtomicBool, t0: Instant) -> Vec<(f64, u64)> {
    let mut samples = Vec::new();
    let mut released = 0u64;
    let period = BG_OFF + BG_ON;
    while !stop.load(Ordering::Acquire) {
        let t = t0.elapsed().as_secs_f64();
        let phase = t % period;
        if phase < BG_OFF {
            std::thread::sleep(Duration::from_secs_f64((BG_OFF - phase).min(0.05)));
            continue;
        }
        throttle.pace(THROTTLE_SLICE);
        released += THROTTLE_SLICE as u64;
        samples.push((t0.elapsed().as_secs_f64(), released));
    }
    samples
}

struct RoundResult {
    write_s: f64,
    read_s: f64,
    wire_bytes: u64,
    bg_bytes: u64,
    sleep_s: f64,
    write_blocked_s: f64,
    epochs: u64,
    level_changes: u64,
    blocks_per_level: Vec<u64>,
}

fn round(corpus: &Corpus, tr: &mut Tracer, op: u64, damage: bool) -> Result<RoundResult, String> {
    let total = 3 * SEGMENT_BYTES;
    let t0 = Instant::now();
    let throttle = SharedThrottle::new(LINK_BPS);
    let (tx, rx) = sync_channel::<Vec<u8>>(64);
    let stop = AtomicBool::new(false);
    let expected = corpus.source();
    let mut source = corpus.source();
    std::thread::scope(|s| {
        let receiver = s.spawn(move || receive(rx, expected, total, t0, damage));
        let bg_throttle = throttle.clone();
        let bg = s.spawn(|| background(bg_throttle, &stop, t0));
        let link = LinkWriter {
            throttle,
            tx,
            t0,
            released: 0,
            samples: Vec::new(),
            sleep: Duration::ZERO,
        };
        let mut w = AdaptiveWriter::with_params(
            link,
            LevelSet::paper_default(),
            Box::new(RateBasedModel::paper_default()),
            DEFAULT_BLOCK_LEN,
            2.0,
            Box::new(WallClock::new()),
        );
        w.set_pipeline_workers(WORKERS);
        let mut chunk = vec![0u8; DEFAULT_BLOCK_LEN];
        let mut sent = 0u64;
        let mut blocked = 0.0;
        let mut result = Ok(());
        while sent < total {
            let n = (total - sent).min(chunk.len() as u64) as usize;
            source.fill(&mut chunk[..n]);
            let (r, secs) = tr.time_s("pipeline.write", op, || w.write_all(&chunk[..n]));
            blocked += secs;
            if let Err(e) = r {
                result = Err(format!("adaptive write: {e}"));
                break;
            }
            sent += n as u64;
        }
        let level_changes = w
            .level_trace()
            .points()
            .windows(2)
            .filter(|p| p[0].1 != p[1].1)
            .count() as u64;
        let finished = tr.time("stream.finish", op, || w.finish());
        let write_s = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        if let Err(e) = result {
            // A receiver that found a mismatch hangs up, which fails the
            // write: report the receiver's reason.
            drop(finished);
            return Err(match receiver.join() {
                Ok(Err(reason)) => reason,
                _ => e,
            });
        }
        let (link, stats) = finished.map_err(|e| format!("adaptive finish: {e}"))?;
        let LinkWriter {
            samples, sleep, tx, ..
        } = link;
        drop(tx);
        let read_s = tr
            .time("receiver.join", op, || receiver.join())
            .map_err(|_| "receiver panicked".to_string())??;
        let bg_samples = bg
            .join()
            .map_err(|_| "background flow panicked".to_string())?;
        let bg_bytes = bg_samples.last().map_or(0, |s| s.1);
        within_link_rate(&[samples, bg_samples], LINK_BPS, THROTTLE_SLICE as u64)?;
        Ok(RoundResult {
            write_s,
            read_s,
            wire_bytes: stats.wire_bytes,
            bg_bytes,
            sleep_s: sleep.as_secs_f64(),
            write_blocked_s: blocked,
            epochs: stats.epochs,
            level_changes,
            blocks_per_level: stats.blocks_per_level,
        })
    })
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut setups = Vec::new();
    let mut corpus = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        corpus = Some(Corpus::generate(cfg.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let corpus = corpus.expect("at least one set-up");
    out.inputs_crc = corpus.files.iter().fold(0, |acc, f| acc ^ crc32(f));
    let gen_bytes = 3 * FILE_LEN as u64;

    let mut tally = Tally::default();
    let mut tr = Tracer::new(false, t0);
    let (mut app, mut write_s, mut read_s) = (0u64, 0.0, 0.0);
    let mut wire = 0u64;
    let mut bg = 0u64;
    let mut layer = RoundResult {
        write_s: 0.0,
        read_s: 0.0,
        wire_bytes: 0,
        bg_bytes: 0,
        sleep_s: 0.0,
        write_blocked_s: 0.0,
        epochs: 0,
        level_changes: 0,
        blocks_per_level: vec![0; 4],
    };
    let mut traced_write = Vec::new();
    let mut plain_write = Vec::new();
    let mut unattributed = Vec::new();
    let rounds = run_rounds(cfg.seconds, |round_no| {
        let traced_round = cfg.traced && round_no % 2 == 1;
        let mut rt = Tracer::new(traced_round, t0);
        let root = rt.begin("round", round_no);
        let res = round(&corpus, &mut rt, round_no, cfg.damage && round_no == 0);
        rt.end(root);
        match res {
            Ok(r) => {
                tally.record("link transfer", Ok(()));
                app += 3 * SEGMENT_BYTES;
                write_s += r.write_s;
                read_s += r.read_s;
                wire += r.wire_bytes;
                bg += r.bg_bytes;
                if traced_round {
                    unattributed.push(rt.totals().get("round").map_or(0.0, |t| t.self_s));
                    traced_write.push(r.write_s);
                    layer.write_s += r.write_s;
                    layer.wire_bytes += r.wire_bytes;
                    layer.bg_bytes += r.bg_bytes;
                    layer.sleep_s += r.sleep_s;
                    layer.write_blocked_s += r.write_blocked_s;
                    layer.epochs += r.epochs;
                    layer.level_changes += r.level_changes;
                    for (a, b) in layer.blocks_per_level.iter_mut().zip(&r.blocks_per_level) {
                        *a += b;
                    }
                    tr.absorb(rt);
                } else {
                    plain_write.push(r.write_s);
                }
            }
            Err(e) => tally.record("link transfer", Err(e)),
        }
    });
    out.tally = tally;
    out.rounds = rounds;
    out.put("setup_s", median(&setups), "s");
    out.put("write_MBps", mb_per_s(app, write_s), "MB/s");
    out.put("read_MBps", mb_per_s(app, read_s), "MB/s");
    out.note("link_app_MBps", mb_per_s(app, write_s));
    out.note("wire_ratio", wire as f64 / app.max(1) as f64);
    out.note("background_MBps", mb_per_s(bg, write_s));
    if cfg.traced {
        let l = &layer;
        let traced_app = 3 * SEGMENT_BYTES * traced_write.len() as u64;
        out.put("controller.epochs", l.epochs as f64, "count");
        out.put("controller.level_changes", l.level_changes as f64, "count");
        for (i, name) in ["NO", "LIGHT", "MEDIUM", "HEAVY"].iter().enumerate() {
            out.put(
                &format!("controller.blocks.{name}"),
                l.blocks_per_level[i] as f64,
                "count",
            );
        }
        out.put(
            "controller.wire_ratio",
            l.wire_bytes as f64 / traced_app.max(1) as f64,
            "ratio",
        );
        out.put("pipeline.write_blocked_s", l.write_blocked_s, "s");
        out.put("link.wire_MBps", mb_per_s(l.wire_bytes, l.write_s), "MB/s");
        out.put(
            "link.background_MBps",
            mb_per_s(l.bg_bytes, l.write_s),
            "MB/s",
        );
        out.put("link.sleep_s", l.sleep_s, "s");
        out.put(
            "corpus.gen_MBps",
            mb_per_s(gen_bytes, median(&setups)),
            "MB/s",
        );
        out.put("unattributed_s", median(&unattributed), "s");
        out.put(
            "trace.overhead_s",
            median(&traced_write) - median(&plain_write),
            "s",
        );
        crate::layers::write_spans(&tr, "shared-link", cfg.seed);
    }
    out
}
